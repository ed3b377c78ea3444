import math
import os

import numpy as np
import pytest

from gmfg import (Constant, ConvergenceError, GMFGProblem, Graphon,
                  InvariantError, Measure1D, Poly2, ProblemFunctions, dirac,
                  ensemble_distance, inner_mv_consistency, marginals, normal_quantile_measure,
                  picard_solve, propagate_closed_loop, sensitivity_probe, w1,
                  w1_joint_continuity_scan)
from gmfg.solver import _law


tracking = Poly2(xx=1.0, xy=-2.0, yy=1.0)


def weak_mean_coupling():
    """Drift 0.1 * mean(y) * u under graphon weight 1; played at u = 1."""
    return ProblemFunctions.structured(Constant(0.0), Poly2(y=0.1),
                                       Constant(0.0), Constant(1.0), Constant(0.0),
                                       Constant(0.0), (-1, 1), 0.4, 1.0)


def tracking_problem(sigma=0.3, T=0.5, f0c=None, l2c=0.0):
    """Control-affine tracking instance: drift c_g(alpha) u, cost
    (x - z)^2 against the own-vertex field plus connectivity-weighted u^2."""
    f0 = f0c if f0c is not None else Constant(0.0)
    return ProblemFunctions.structured(f0, Constant(1.0), tracking,
                                       Constant(l2c), Constant(0.0), Constant(1.0),
                                       (-1.0, 1.0), sigma, T)


def small_problem(M=4, K=32, R=2000, seed=11, graphon=None, **kw):
    g = graphon if graphon is not None else Graphon.uniform_attachment()
    return GMFGProblem(tracking_problem(**kw), g,
                       normal_quantile_measure(0.0, 0.3, 129),
                       M=M, K=K, N_x=121, R=R, seed=seed)


def ladder_problem(M):
    """The shipped ladder scenario's solver problem at M vertices."""
    from gmfg.scenario import parse_scenario

    path = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios",
                        "enash_ladder.json")
    return parse_scenario(path).build_problem(M=M)


@pytest.fixture(scope="module")
def small_solution():
    problem = small_problem()
    return problem, picard_solve(problem, tol=0.05, min_outer=5, max_outer=25)


@pytest.fixture(scope="module")
def reverting_solution():
    """A solve whose map keeps contracting: the own-vertex mean reversion in
    f0 reads more of the law than its mean. The symmetric tracking problem
    of ``small_solution`` lands on its fixed point in one pass, since an
    exact symmetric law keeps every vertex mean at 0."""
    problem = small_problem(f0c=Poly2(x=-1.0, y=1.0, clip=(-2.0, 2.0)), l2c=0.5)
    return problem, picard_solve(problem, tol=0.05, min_outer=5, max_outer=25)


def diffusion_ensemble(problem):
    """The quantile ensemble of the pure-diffusion grid law."""
    return _law(problem)[1]


def constant_policy(problem, value):
    """The (M, K+1, N_x) feedback table that plays ``value`` everywhere."""
    return np.full((problem.M, problem.K + 1, problem.N_x), float(value))


class TestPropagation:
    def test_driftless_marginal_is_gaussian(self):
        p = ProblemFunctions.structured(Constant(0.0), Constant(0.0), tracking,
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 1.0, 1.0)
        problem = GMFGProblem(p, Graphon.constant(0.0), dirac(0.0),
                              M=2, K=64, N_x=101, R=10_000, seed=3)
        ens = diffusion_ensemble(problem)
        bundle = propagate_closed_loop(problem, constant_policy(problem, 0.0), ens)
        levels = (np.arange(4001) + 0.5) / 4001
        from scipy.special import ndtri
        oracle = Measure1D(ndtri(levels))  # N(0, 1) at t = 1
        got = marginals(bundle).get(0, problem.K)
        assert w1(got, oracle) < 0.05

    def test_sigma_zero_rejected(self):
        with pytest.raises(InvariantError):
            tracking_problem(sigma=0.0)

    def test_constant_control_mean_displacement(self):
        # f0 = 0, f = 1, g = 1: drift is exactly u; paths are x0 + u t + noise
        problem = GMFGProblem(tracking_problem(), Graphon.constant(1.0),
                              dirac(0.2), M=2, K=40, N_x=101, R=4000, seed=5)
        ens = diffusion_ensemble(problem)
        u_star = 0.5
        bundle = propagate_closed_loop(problem, constant_policy(problem, u_star), ens)
        mean_T = bundle.paths[:, :, -1].mean(axis=1)
        target = 0.2 + u_star * problem.functions.T
        band = 3 * problem.functions.sigma / math.sqrt(problem.R)
        assert np.abs(mean_T - target).max() < band

    def test_common_random_numbers_coupling(self):
        problem = small_problem()
        ens = diffusion_ensemble(problem)
        pols = constant_policy(problem, 0.1)
        b1 = propagate_closed_loop(problem, pols, ens)
        b2 = propagate_closed_loop(problem, pols, ens)
        assert np.array_equal(b1.paths, b2.paths)

    def test_paths_are_time_major(self):
        """Behind the (M, R, K+1) view, one time node of a vertex is one
        contiguous row."""
        problem = small_problem(M=2, K=8, R=300)
        ens = diffusion_ensemble(problem)
        for u in (0.0, 0.1):
            bundle = propagate_closed_loop(problem, constant_policy(problem, u), ens)
            assert bundle.paths.shape == (problem.M, problem.R, problem.K + 1)
            assert np.swapaxes(bundle.paths, 1, 2).flags.c_contiguous


    def test_nan_drift_row_raises(self):
        """A non-finite drift row fails the propagation at its vertex."""
        from gmfg import NumericalError, frozen_fields

        problem = small_problem(M=3, K=8, R=300)
        ens = diffusion_ensemble(problem)
        fields = frozen_fields(problem.functions, problem.graphon,
                               problem.vertex_grid.midpoints, ens, problem.x_grid,
                               drift_only=True)
        fields.drift_coef[1, 4] = np.nan
        with pytest.raises(NumericalError, match="diverged at row 1"):
            propagate_closed_loop(problem, constant_policy(problem, 0.1), ens,
                                  fields=fields)


class TestInnerConsistency:
    @staticmethod
    def weak_problem():
        # the drift reads the vertex mean, which the played u = 1 moves
        return GMFGProblem(weak_mean_coupling(), Graphon.constant(1.0), dirac(0.5),
                           M=3, K=32, N_x=81, R=1000, seed=9)

    def test_measure_independent_drift_converges_immediately(self):
        """The first pass leaves the pure-diffusion law; the second solves
        the same law again, so its distance is 0 and the loop stops."""
        prob = GMFGProblem(
            ProblemFunctions.structured(Constant(1.0), Constant(0.0),
                                        Poly2(xx=1.0), Constant(1.0),
                                        Constant(0.0), Constant(0.0), (-1, 1), 0.3, 0.5),
            Graphon.constant(0.0), dirac(0.0), M=2, K=16, N_x=81, R=500, seed=7)
        pols = constant_policy(prob, 0.3)
        masses, got, trace = inner_mv_consistency(prob, pols)
        assert len(trace) == 2 and trace[0] > prob.distance_floor and trace[1] == 0.0
        direct, direct_ens = _law(prob, pols)
        assert np.array_equal(masses, direct)
        assert np.array_equal(got.atoms, direct_ens.atoms)

    def test_weak_coupling_geometric_decay(self):
        prob = self.weak_problem()
        pols = constant_policy(prob, 1.0)
        _, _, trace = inner_mv_consistency(prob, pols, max_inner=40)
        assert trace[-1] <= prob.distance_floor
        ratios = [b / a for a, b in zip(trace, trace[1:]) if a > 1e-9]
        assert len(ratios) >= 2 and max(ratios) < 0.5

    def test_exhausted_iterations_raise_with_trace(self):
        prob = GMFGProblem(weak_mean_coupling(), Graphon.constant(1.0), dirac(0.5),
                           M=2, K=16, N_x=61, R=400, seed=10)
        pols = constant_policy(prob, 1.0)
        with pytest.raises(ConvergenceError) as err:
            inner_mv_consistency(prob, pols, max_inner=2)
        assert len(err.value.trace) == 2

    def test_start_near_the_fixed_point_saves_law_solves(self, law_solves):
        """Started from the solved ensemble, the loop reaches the laws of the
        pure-diffusion start, within a few rounding floors of the node-law
        W1, with fewer law solves under the policy; its first solve records
        no distance."""
        from gmfg.measures import node_w1_sup

        problem = ladder_problem(M=2)
        sol = picard_solve(problem, tol=0.08)
        law_solves.clear()
        cold, _, cold_trace = inner_mv_consistency(problem, sol.policy)
        cold_solves = sum(law_solves)
        law_solves.clear()
        warm, _, warm_trace = inner_mv_consistency(problem, sol.policy, start=sol.ensemble)
        assert len(cold_trace) == cold_solves
        assert len(warm_trace) == sum(law_solves) - 1 == len(law_solves) - 1
        assert sum(law_solves) < cold_solves
        dx = float(problem.x_grid[1] - problem.x_grid[0])
        assert node_w1_sup(warm, cold, dx) <= 4 * problem.distance_floor

    def test_grid_loops_draw_no_noise(self, monkeypatch):
        """Neither the Picard solve nor the fixed-policy law loop draws a
        random stream."""
        from gmfg import rng

        problem = TestPicardSolve.own_mean_problem()
        real = rng.stream
        draws = []

        def counting(seed, *tags):
            draws.append(tags[0])
            return real(seed, *tags)

        monkeypatch.setattr(rng, "stream", counting)
        picard_solve(problem, tol=0.3, min_outer=3, max_outer=10)
        weak = self.weak_problem()
        _, _, trace = inner_mv_consistency(weak, constant_policy(weak, 1.0))
        assert len(trace) > 2
        assert draws == []

    def test_grid_loops_adopt_one_ensemble_per_law_solve(self, monkeypatch):
        """The Picard solve and the law loop adopt one quantile ensemble per
        law solve (the pure-diffusion start, then one per pass) and nothing
        else."""
        from gmfg.measures import MeasureEnsemble

        problem = TestPicardSolve.own_mean_problem()
        real_adopt = MeasureEnsemble.adopt
        calls = []

        def adopting(atoms, times):
            calls.append("adopt")
            return real_adopt(atoms, times)

        monkeypatch.setattr(MeasureEnsemble, "adopt", staticmethod(adopting))
        sol = picard_solve(problem, tol=0.3, min_outer=3, max_outer=10)
        assert calls == ["adopt"] * (1 + len(sol.trace))
        calls.clear()
        weak = self.weak_problem()
        _, _, trace = inner_mv_consistency(weak, constant_policy(weak, 1.0))
        assert len(trace) > 2
        assert calls == ["adopt"] * (1 + len(trace))


class TestPicardSolve:
    @staticmethod
    def uncoupled_problem(drift):
        # no y-dependence anywhere: the fixed-point map is constant
        p = ProblemFunctions.structured(Constant(drift), Constant(0.0),
                                        Poly2(xx=1.0), Constant(1.0),
                                        Constant(0.0), Constant(0.0), (-1, 1), 0.3, 0.5)
        return GMFGProblem(p, Graphon.constant(0.0), dirac(0.0),
                           M=2, K=16, N_x=81, R=400, seed=13)

    def test_uncoupled_instance_converges_in_two_passes(self):
        prob = self.uncoupled_problem(1.0)
        sol = picard_solve(prob, tol=0.25)
        assert len(sol.trace) == 2
        assert sol.trace[1]["distance"] <= 3.0 / math.sqrt(prob.R)

    def test_zero_graphon_recovers_vertex_symmetric_mfg(self):
        prob = small_problem(M=3, R=2000, graphon=Graphon.constant(0.0),
                             f0c=Constant(1.0), l2c=1.0)
        sol = picard_solve(prob, tol=0.08, max_outer=25)
        floor = 3.0 / math.sqrt(prob.R)
        for v in range(1, prob.M):
            for k in (0, prob.K // 2, prob.K):
                d = w1(sol.ensemble.get(0, k), sol.ensemble.get(v, k))
                assert d < 2 * floor

    def test_contraction_trace(self, reverting_solution):
        _, sol = reverting_solution
        dists = [e["distance"] for e in sol.trace]
        ratios = [b / a for a, b in zip(dists, dists[1:])]
        assert len(ratios) >= 3
        assert all(r < 1.0 for r in ratios[:3])

    def test_fixed_point_residual(self, reverting_solution):
        # pass n+1 of a longer solve starts from the n-pass solution's
        # ensemble, so its distance is the change one more pass makes; the
        # reverting map stays above the rounding floor, so min_outer forces
        # that pass
        problem, sol = reverting_solution
        n = len(sol.trace)
        longer = picard_solve(problem, tol=0.05, min_outer=n + 1, max_outer=25)
        assert longer.trace[:n] == sol.trace
        extra = longer.trace[n]["distance"]
        assert extra < 2 * sol.tol + 3.0 / math.sqrt(problem.R)

    def test_fixed_point_stops_at_the_rounding_floor(self, small_solution):
        """The symmetric map lands on its fixed point in one pass, so the
        second pass's distance is rounding (about 2e-15) and ends the solve
        although min_outer asks for five."""
        problem, sol = small_solution
        assert len(sol.trace) == 2
        assert sol.trace[-1]["distance"] <= problem.distance_floor

    def test_tolerance_below_the_rounding_floor_converges(self, small_solution):
        """A tolerance no distance can meet still returns once the
        iteration sits at its fixed point: the same solution as at tol
        0.05."""
        problem, ref = small_solution
        sol = picard_solve(small_problem(), tol=1e-16)
        assert len(sol.trace) == 2
        assert np.array_equal(sol.policy, ref.policy)
        assert np.array_equal(sol.ensemble.atoms, ref.ensemble.atoms)

    def test_first_pass_at_the_floor_stops_the_solve(self):
        # with f0 = f = 0 the control cannot move the law, so the first
        # pass's law is the pure-diffusion start
        prob = self.uncoupled_problem(0.0)
        sol = picard_solve(prob, tol=0.25, min_outer=3)
        assert len(sol.trace) == 1
        assert sol.trace[0]["distance"] <= prob.distance_floor

    def test_determinism_bit_identical(self):
        prob1 = small_problem(M=2, K=16, R=500)
        prob2 = small_problem(M=2, K=16, R=500)
        s1 = picard_solve(prob1, tol=0.25)
        s2 = picard_solve(prob2, tol=0.25)
        assert [e["distance"] for e in s1.trace] == [e["distance"] for e in s2.trace]
        assert np.array_equal(s1.ensemble.atoms, s2.ensemble.atoms)
        assert np.array_equal(s1.policy, s2.policy)

    def test_nonconvergence_raises_with_trace(self):
        prob = small_problem(M=2, K=16, R=500)
        with pytest.raises(ConvergenceError) as err:
            picard_solve(prob, tol=0.25, max_outer=1)
        assert len(err.value.trace) == 1

    def test_vertex_transitive_graphon_symmetric_solution(self):
        prob = small_problem(M=3, K=24, R=2000, graphon=Graphon.constant(0.6))
        sol = picard_solve(prob, tol=0.08, max_outer=25)
        floor = 3.0 / math.sqrt(prob.R)
        for v in range(1, prob.M):
            d = w1(sol.ensemble.get(0, prob.K), sol.ensemble.get(v, prob.K))
            assert d < 2 * floor

    def test_tolerance_below_the_particle_floor_is_kept(self):
        """The grid solve holds no particles, so a tolerance far below
        5 / sqrt(R) (0.079 at R = 4000) is met as asked: the ladder problem
        at M = 2 contracts by about 0.04 per pass and reaches 1e-9 in six
        passes."""
        problem = ladder_problem(M=2)
        assert problem.R == 4000
        sol = picard_solve(problem, tol=1e-9)
        assert sol.tol == 1e-9
        assert len(sol.trace) > 2
        assert sol.trace[-1]["distance"] < 1e-9
        assert all(e["ratio"] < 0.1 for e in sol.trace[1:])

    def test_min_outer_above_max_outer_rejected(self):
        from gmfg import ConfigError
        with pytest.raises(ConfigError, match="min_outer 3 exceeds max_outer 2"):
            picard_solve(small_problem(M=2, K=16, R=500), tol=0.25, min_outer=3,
                         max_outer=2)

    def test_trace_reports_cfl_margin_and_no_escape(self, small_solution):
        problem, sol = small_solution
        dt = problem.times[1] - problem.times[0]
        dx = problem.x_grid[1] - problem.x_grid[0]
        for entry in sol.trace:
            # the implicit diffusion gives every node some mass, so the end
            # nodes of a wide domain hold mass at the rounding level only
            assert 0.0 <= entry["escaped_mass"] < 1e-12
            # drift u against the section mass c_g(alpha) <= 1, |u| <= 1
            assert 1.0 - dt / dx <= entry["cfl_margin"] < 1.0

    def test_trace_reports_policy_lipschitz(self, small_solution):
        """The last pass's entry holds the largest Lipschitz constant of the
        policies that the solution returns."""
        from gmfg import policy_lipschitz

        _, sol = small_solution
        assert all(e["policy_lipschitz"] >= 0.0 for e in sol.trace)
        assert sol.trace[-1]["policy_lipschitz"] == max(
            policy_lipschitz(pol, sol.problem.x_grid) for pol in sol.policy)

    def test_narrow_domain_reports_escaped_mass(self):
        from gmfg import MeasureEnsemble, frozen_fields, node_quantiles, solve_fpk
        from gmfg.solver import LAW_ATOMS

        # a reflected law keeps more mass inside than free particles do: on
        # (-0.3, 0.3) its end nodes hold 0.036 on average, where 5.6% of
        # the particle-steps lay outside
        problem = GMFGProblem(tracking_problem(), Graphon.uniform_attachment(),
                              dirac(0.0), M=2, K=16, N_x=11, R=500, seed=11,
                              domain=(-0.2, 0.2))
        sol = picard_solve(problem, tol=10.0, min_outer=1, max_outer=1)
        # the pass's law: its policy under the fields of the diffusion start
        x, times = problem.x_grid, problem.times
        mass0 = np.tile(problem.initial_masses, (problem.M, 1))
        start = solve_fpk(problem.functions, x, times, mass0)
        fields = frozen_fields(problem.functions, problem.graphon,
                               problem.vertex_grid.midpoints,
                               MeasureEnsemble(node_quantiles(start, x, LAW_ATOMS), times),
                               x)
        masses = solve_fpk(problem.functions, x, times, mass0,
                           fields.drift_coef * sol.policy)
        ends = masses[:, :-1, 0] + masses[:, :-1, -1]
        assert sol.trace[0]["escaped_mass"] == pytest.approx(ends.mean(), abs=1e-15)
        assert sol.trace[0]["escaped_mass"] > 0.05

    def test_particle_law_agrees_with_grid_law(self, reverting_solution):
        """Particles propagated once under the solved policy against the
        solved law reproduce that law: at every (vertex, time) the W1 gap of
        their marginals to its quantile atoms stays inside the noise floor
        3 / sqrt(R)."""
        problem, sol = reverting_solution
        laws = marginals(propagate_closed_loop(problem, sol.policy, sol.ensemble))
        gap = max(w1(laws.get(v, k), sol.ensemble.get(v, k))
                  for v in range(problem.M) for k in range(problem.K + 1))
        assert gap < 3.0 / math.sqrt(problem.R)

    def test_initial_atom_outside_the_grid_rejected(self):
        """An initial law reaching past the space grid is an input error,
        not a law clamped to the end nodes."""
        from gmfg import DomainError

        with pytest.raises(DomainError, match="outside the space grid"):
            GMFGProblem(tracking_problem(), Graphon.uniform_attachment(),
                        dirac(0.5), M=2, K=16, N_x=11, R=500, seed=11,
                        domain=(-0.3, 0.3))

    @staticmethod
    def own_mean_problem(M=2, K=16, R=400, seed=10, graphon=None,
                         initial=None, N_x=61):
        # the drift reads the own measure, so the Picard map has work
        return GMFGProblem(tracking_problem(f0c=Poly2(y=0.5, clip=(-1.0, 1.0))),
                           graphon or Graphon.constant(1.0), initial or dirac(0.5),
                           M=M, K=K, N_x=N_x, R=R, seed=seed)

    def test_grid_solve_holds_no_path_array(self):
        """The grid solve keeps node laws and quantile atoms: its
        ``tracemalloc`` peak is below one (M, K+1, R) particle array."""
        import tracemalloc

        problem = self.own_mean_problem(
            M=4, K=32, R=4000, seed=12, graphon=Graphon.uniform_attachment(),
            initial=normal_quantile_measure(0.0, 0.3, 129))
        path_bytes = problem.M * (problem.K + 1) * problem.R * 8
        tracemalloc.start()
        try:
            picard_solve(problem, tol=10.0, min_outer=3, max_outer=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path_bytes

    def test_min_particle_count_enforced(self):
        with pytest.raises(InvariantError):
            small_problem(R=50)

    def test_path_diagnostics(self, small_solution):
        problem, sol = small_solution
        start = propagate_closed_loop(problem, constant_policy(problem, 0.0),
                                      sol.ensemble)
        bundle = propagate_closed_loop(problem, sol.policy, sol.ensemble)
        assert ensemble_distance(start, bundle) > 0.0
        assert ensemble_distance(bundle, bundle) == 0.0


class TestHolderDiagnostic:
    def test_path_fit_is_steady_in_the_path_count(self):
        """The Holder fit of coupled paths under a solved policy measures
        the flow, not the sampling noise: on the acceptance problem (two
        vertices) C_h moves by less than 20% from R = 2,500 to 40,000, and
        eta stays in criterion 9's band. The fit of odd test-function means
        it replaces read only the noise of this symmetric law, and its C_h
        fell like 1 / sqrt(R)."""
        from gmfg import holder_modulus

        def problem(R):
            return GMFGProblem(tracking_problem(), Graphon.uniform_attachment(),
                               normal_quantile_measure(0.0, 0.3, 129), M=2, K=64,
                               N_x=201, R=R, seed=2024)

        sol = picard_solve(problem(2500), tol=0.05)
        fits = [holder_modulus(propagate_closed_loop(problem(R), sol.policy,
                                                     sol.ensemble))
                for R in (2500, 40_000)]
        assert all(0.3 <= eta <= 1.0 for _, eta in fits)
        assert fits[1][0] == pytest.approx(fits[0][0], rel=0.2)


class TestSensitivityProbe:
    def test_decoupled_problem_has_zero_c1(self):
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0),
                                        Poly2(xx=1.0), Constant(1.0),
                                        Constant(0.0), Constant(0.0), (-1, 1), 0.3, 0.5)
        prob = GMFGProblem(p, Graphon.constant(0.0), dirac(0.0),
                           M=2, K=16, N_x=81, R=400, seed=17)
        sol = picard_solve(prob, tol=0.25)
        rep = sensitivity_probe(prob, sol, delta=0.05)
        assert rep.c1 == 0.0
        assert math.isfinite(rep.c1) and math.isnan(rep.c2)

    def test_probe_sign_symmetry(self, small_solution):
        problem, sol = small_solution
        plus = sensitivity_probe(problem, sol, delta=0.05)
        minus = sensitivity_probe(problem, sol, delta=-0.05)
        assert plus.c1 > 0 and minus.c1 > 0
        assert abs(plus.c1 - minus.c1) <= 0.2 * max(plus.c1, minus.c1)

    def test_contraction_product_below_one(self, small_solution):
        problem, sol = small_solution
        rep = sensitivity_probe(problem, sol, delta=0.05)
        assert math.isfinite(rep.c1) and math.isfinite(rep.c2)
        assert rep.product < 1.0

    def test_product_tracks_picard_ratio(self, reverting_solution):
        # loose sanity tie: the probe product and the reported empirical
        # contraction ratio (last distance over previous) agree within 3x
        problem, sol = reverting_solution
        rep = sensitivity_probe(problem, sol, delta=0.05)
        last_ratio = sol.trace[-1]["ratio"]
        assert last_ratio == pytest.approx(rep.product, rel=2.0)


class TestLQCrossCheck:
    """The Picard solver on the linear-quadratic game, against the closed
    form of :mod:`gmfg.lq`.

    With f0 = 1, f = 0, l1 = x^2 - 2 gamma0 x y - 2 eta x, l2 = 1,
    l3 = -2 gamma x y and l4 = 0 the structured cost is the LQ tracking cost
    (x - gamma0 xbar - gamma zbar - eta)^2 + u^2 up to terms free of x, so
    the optimal feedback is -Pi(t) x - s(alpha, t) and the vertex means are
    xbar(alpha, t). The control set is wide enough that the clamp never
    binds near the mass. One check of the brackets, the value sweep, the
    clamp and the law solve against an independent solver.
    """

    gamma0, gamma, eta, sigma, T, M = 0.5, 0.4, 1.0, 0.3, 0.5, 4

    def errors(self, K, N_x):
        from gmfg.lq import LQParams, solve_lq_fixed_point

        fns = ProblemFunctions.structured(
            Constant(1.0), Constant(0.0),
            Poly2(xx=1.0, xy=-2.0 * self.gamma0, x=-2.0 * self.eta), Constant(1.0),
            Poly2(xy=-2.0 * self.gamma), Constant(0.0), (-4.0, 4.0), self.sigma, self.T)
        problem = GMFGProblem(fns, Graphon.uniform_attachment(),
                              normal_quantile_measure(0.5, 0.3, 129), M=self.M,
                              K=K, N_x=N_x, R=4000, seed=5)
        sol = picard_solve(problem, tol=1e-10)
        lq = solve_lq_fixed_point(LQParams(
            0.0, 1.0, 0.0, 0.0, self.sigma, 1.0, 1.0, 0.0, self.gamma0, self.gamma,
            self.eta, 0.5, self.T, Graphon.uniform_attachment(), self.M, K))
        x = problem.x_grid
        gain = lq.params.Rinv @ lq.params.B.T                 # (1, 1)
        exact = -gain[0, 0] * (lq.riccati.Pi[None, :, 0, :] * x + lq.s[:, :, :1])
        near = np.abs(x - 0.5) < 1.0
        policy_err = float(np.abs(sol.policy - exact)[:, :-1, near].max())
        mean_err = float(np.abs(sol.ensemble.atoms.mean(axis=2)
                                - lq.xbar[:, :, 0]).max())
        return policy_err, mean_err

    def test_policy_and_means_match_closed_form(self):
        coarse, coarse_mean = self.errors(64, 201)
        fine, fine_mean = self.errors(128, 401)
        # the sweep is first order, and solved to the fixed point its error
        # halves with the grid: 0.0195 and 0.0098 when this was written (a
        # Picard error left at tol 0.05 gave only 1.87x)
        assert coarse < 0.03
        assert coarse / fine >= 1.95
        # 1 / sqrt(R), a third of the noise floor, which the means of 4000
        # particles met (0.008 at both resolutions)
        assert max(coarse_mean, fine_mean) < 1.0 / math.sqrt(4000)
        # the law is exact up to the grid, so its mean error halves with it
        # (0.0037 to 0.0018 when this was written); a particle law's error
        # is sampling noise and did not fall (0.0076 to 0.0075 at R = 4000)
        assert coarse_mean / fine_mean >= 1.95


class TestJointContinuityRefinement:
    @pytest.mark.slow
    def test_scan_shrinks_and_policies_uniformly_lipschitz(self):
        sols = {}
        for M in (4, 8, 16):
            prob = small_problem(M=M, K=24, R=2000, seed=19)
            sols[M] = picard_solve(prob, tol=0.12, max_outer=20)
        floor = 3.0 / math.sqrt(2000)
        scan4 = w1_joint_continuity_scan(sols[4].ensemble)
        scan8 = w1_joint_continuity_scan(sols[8].ensemble)
        assert scan8 <= scan4 + 2 * floor
        # interior policy slopes stay below one constant across resolutions
        # and vertices (the boundary layer of the zero-slope box is excluded)
        for M, sol in sols.items():
            prob = sol.problem
            interior = np.abs(prob.x_grid) <= 1.5
            dx = prob.x_grid[1] - prob.x_grid[0]
            for pol in sol.policy:
                slope = np.abs(np.diff(pol[:, interior], axis=1)).max() / dx
                assert slope < 3.0


class TestBatchedPass:
    def test_batched_pass_matches_per_vertex_reference(self):
        """Fields, value sweep and propagation of M = 3 vertices in one batch
        equal a per-vertex reference (the vertex tables all differ)."""
        from gmfg import frozen_fields, rng, solve_hjb

        revert = Poly2(x=-1.0, y=1.0, clip=(-2.0, 2.0))
        p = ProblemFunctions.structured(revert, Constant(1.0), tracking,
                                        Constant(0.5), Poly2(const=0.2, yy=0.1),
                                        Constant(1.0), (-1.0, 1.0), 0.3, 0.5)
        problem = GMFGProblem(p, Graphon.uniform_attachment(),
                              normal_quantile_measure(0.2, 0.3, 65), M=3, K=12,
                              N_x=41, R=300, seed=23)
        ens = diffusion_ensemble(problem)
        x, times = problem.x_grid, problem.times
        alphas = problem.vertex_grid.midpoints
        fields = frozen_fields(p, problem.graphon, alphas, ens, x)
        values, table = solve_hjb(p, problem.graphon, alphas, ens, x, fields=fields)
        bundle = propagate_closed_loop(problem, table, ens, fields=fields)
        s = p.structured_parts

        def bracket(name, v, k):
            # mean of the coefficient over every particle of vertex v
            return s[name](x[:, None], ens.atoms[v, k][None, :]).mean(axis=1)

        for v, alpha in enumerate(alphas):
            gw = problem.graphon.evaluate(alpha, alphas) / problem.M
            for k in range(times.size):
                for name, intra, coupled in (("drift_coef", "f0", "f"),
                                             ("cost_const", "l1", "l3"),
                                             ("cost_quad", "l2", "l4")):
                    want = bracket(intra, v, k) + sum(
                        gw[j] * bracket(coupled, j, k) for j in range(problem.M))
                    np.testing.assert_allclose(
                        getattr(fields, name)[v, k], want, rtol=0,
                        atol=1e-12 * (1.0 + np.abs(want).max()))

        dt, dx = times[1] - times[0], x[1] - x[0]
        nu = p.sigma**2 * dt / (2.0 * dx * dx)
        lam = 1.0 + 2.0 * nu * (1.0 - np.cos(np.pi * np.arange(x.size) / (x.size - 1)))

        def diffuse(r):
            # the implicit reflected diffusion, diagonal in the DCT-I basis
            even = np.concatenate([r, r[-2:0:-1]])
            return np.fft.irfft(np.fft.rfft(even) / lam, n=even.size)[:x.size]

        assert not np.array_equal(fields.drift_coef[0], fields.drift_coef[1])
        for v in range(problem.M):
            drift, const, quad = (fields.drift_coef[v], fields.cost_const[v],
                                  fields.cost_quad[v])
            V = np.zeros_like(drift)
            policy = np.zeros_like(drift)
            for k in range(times.size - 2, -1, -1):
                h = -drift[k] / (2.0 * quad[k])
                Dp, Dm = np.zeros(x.size), np.zeros(x.size)
                Dp[:-1] = Dm[1:] = (V[k + 1, 1:] - V[k + 1, :-1]) / dx
                cand = []
                for D in (Dp, Dm, 0.5 * (Dp + Dm)):
                    u = np.clip(D * h, p.u_min, p.u_max)
                    cand.append((u, drift[k] * u, const[k] + quad[k] * u**2))
                (u_p, f_p, c_p), (u_m, f_m, c_m), (u_c, f_c, c_c) = cand
                H_p, H_m = f_p * Dp + c_p, f_m * Dm + c_m
                use_p = (f_p >= 0.0) & ((f_m > 0.0) | (H_p <= H_m))
                neither = (f_p < 0.0) & (f_m > 0.0)
                H_c = f_c * np.where(f_c > 0, Dp, Dm) + c_c
                u_m, H_m = np.where(neither, u_c, u_m), np.where(neither, H_c, H_m)
                V[k] = diffuse(V[k + 1] + dt * np.where(use_p, H_p, H_m))
                policy[k] = np.where(use_p, u_p, u_m)
            policy[-1] = np.clip(0.0 * (-drift[-1] / (2.0 * quad[-1])), p.u_min, p.u_max)
            assert np.array_equal(values[v], V)
            assert np.array_equal(table[v], policy)

            xs = problem.initial_law.quantile(
                rng.stream(problem.seed, rng.INITIAL, v).random(problem.R))
            noise = rng.stream(problem.seed, rng.PROPAGATE, v).standard_normal(
                (problem.R, problem.K))
            path = [xs]
            for k in range(problem.K):
                u = np.interp(xs, x, policy[k])
                xs = (xs + np.interp(xs, x, drift[k]) * u * dt
                      + p.sigma * np.sqrt(dt) * noise[:, k])
                path.append(xs)
            assert np.array_equal(bundle.paths[v], np.stack(path, axis=1))
