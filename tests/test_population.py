import math

import numpy as np
import pytest

from gmfg import (ConfigError, Constant, GMFGProblem, GMFGSolution, Graphon, GridError,
                  InvariantError, NumericalError, Policy, Poly2, ProblemFunctions,
                  build_population, default_deviation_family, deviation_metrics, dirac,
                  empirical, inner_mv_consistency, normal_quantile_measure,
                  perturbation_terms, picard_solve, policy_lipschitz, run_ladder,
                  run_system_a, run_system_b, run_system_c, run_system_d, w1)
from gmfg import rng
from gmfg.population import (_assemble_gap_report, _cluster_policy,
                             _equilibrium_and_deviations, system_c_fields, system_d_fields)
from gmfg.solver import _drift_fields


tracking = Poly2(xx=1.0, xy=-2.0, yy=1.0)


# bounded, Lipschitz intra coupling
mean_revert = Poly2(x=-1.0, y=1.0, clip=(-2.0, 2.0))


def solved_policy(solution, v):
    """Row v of a solution's feedback table as a Policy a deviator plays."""
    problem = solution.problem
    p = problem.functions
    return Policy(solution.policy[v], problem.x_grid, problem.times,
                  (p.u_min, p.u_max))


def coupled_problem(sigma=0.3, T=0.5):
    """Ladder-style instance with intra mean reversion and graphon-scaled
    control: drift u * (clip(zbar_own - x) + c_g), cost tracks the own field."""
    return ProblemFunctions.structured(mean_revert, Constant(1.0), tracking,
                                       Constant(0.5), Constant(0.0), Constant(1.0),
                                       (-1.0, 1.0), sigma, T)


def uncoupled_problem(sigma=0.3, T=0.5):
    """No y-dependence anywhere and constant drift coefficient."""
    return ProblemFunctions.structured(Constant(1.0), Constant(0.0),
                                       Poly2(xx=1.0), Constant(1.0),
                                       Constant(0.0), Constant(0.0),
                                       (-1.0, 1.0), sigma, T)


def solve_instance(functions, graphon, M, K=24, R=1500, seed=29, N_x=101):
    problem = GMFGProblem(functions, graphon, normal_quantile_measure(0.0, 0.3, 65),
                          M=M, K=K, N_x=N_x, R=R, seed=seed)
    return picard_solve(problem, tol=0.1, max_outer=20)


@pytest.fixture(scope="module")
def coupled_solution():
    return solve_instance(coupled_problem(), Graphon.uniform_attachment(), M=4)


@pytest.fixture(scope="module")
def graphon_coupled_solution():
    """Every coefficient but l2 reads y, the graphon-weighted ones too, so
    each agent's brackets depend on every cluster of its own row."""
    functions = ProblemFunctions.structured(
        mean_revert, Poly2(x=-0.25, y=0.5, clip=(-1.0, 1.0)), tracking,
        Constant(0.5), Poly2(yy=0.5), Poly2(const=1.0, yy=0.1),
        (-1.0, 1.0), 0.3, 0.5)
    return solve_instance(functions, Graphon.uniform_attachment(), M=4, R=400)


@pytest.fixture(scope="module")
def uncoupled_solution():
    return solve_instance(uncoupled_problem(), Graphon.constant(0.0), M=2, K=16)


class TestBuildPopulation:
    def test_single_cluster(self):
        pop = build_population(Graphon.constant(0.5), 1, 5, dirac(0.0), seed=1)
        assert pop.N == 5
        assert pop.midpoint(3) == pytest.approx(0.5)

    def test_cluster_order(self):
        pop = build_population(Graphon.constant(0.5), 2, 3, dirac(0.0), seed=1)
        assert pop.N == 6
        assert list(pop.cluster_of) == [0] * 3 + [1] * 3

    def test_seeded_initials_reproduce(self):
        law = normal_quantile_measure(0.0, 1.0, 257)
        p1 = build_population(Graphon.constant(0.2), 2, 10, law, seed=9)
        p2 = build_population(Graphon.constant(0.2), 2, 10, law, seed=9)
        assert np.array_equal(p1.initial_states, p2.initial_states)

    def test_size_mismatch(self):
        with pytest.raises(GridError):
            build_population(Graphon.step([[0.2, 0.2], [0.2, 0.2]]), 3, 4,
                             dirac(0.0), seed=0)
        with pytest.raises(InvariantError):
            build_population(Graphon.constant(0.2), 2, 0, dirac(0.0), seed=0)


class TestClusterPolicy:
    def test_clusters_read_the_nearest_solver_vertex(self):
        """Cluster midpoints 1/6, 1/2 and 5/6 against an M = 8 grid: the
        middle one ties between vertices 3 and 4 and reads 3."""
        problem = GMFGProblem(uncoupled_problem(), Graphon.uniform_attachment(),
                              dirac(0.0), M=8, K=4, N_x=11, R=100)
        policy = np.arange(8 * 5 * 11, dtype=float).reshape(8, 5, 11)
        solution = GMFGSolution(policy, None, [], 0.1, problem)
        pop = build_population(problem.graphon, 3, 2, problem.initial_law, seed=1)
        assert np.array_equal(_cluster_policy(pop, solution), policy[[1, 3, 6]])

    def test_ladder_is_checked_before_the_first_solve(self, monkeypatch):
        from gmfg import solver

        solves = []
        monkeypatch.setattr(solver, "picard_solve", lambda *a, **k: solves.append(a))
        step = Graphon.step([[0.5, 0.2], [0.2, 0.5]])

        def make_problem(M):
            return GMFGProblem(uncoupled_problem(), step, dirac(0.0), M=M, K=4,
                               N_x=11, R=100)

        with pytest.raises(ConfigError, match="2 nodes, not the M_k of rung.s. 4:5"):
            run_ladder(make_problem, [(2, 5), (4, 5)], n_reps=1)
        assert solves == []


class TestSystemA:
    def test_driftless_brownian_population(self):
        p = ProblemFunctions.structured(Constant(0.0), Constant(0.0), tracking,
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.5, 1.0)
        sol = solve_instance(p, Graphon.constant(0.0), M=2, K=16, R=400)
        pop = build_population(Graphon.constant(0.0), 2, 200,
                               dirac(0.3), seed=4)
        ts = run_system_a(pop, sol)
        mean_T = ts.paths[:, -1].mean()
        assert abs(mean_T - 0.3) < 3 * 0.5 / math.sqrt(pop.N)

    def test_single_cluster_zero_graph_keeps_intra_only(self, coupled_solution):
        # graph weight zero: inter term gone; intra mean reversion remains
        sol = solve_instance(coupled_problem(), Graphon.constant(0.0), M=1, K=24)
        pop = build_population(Graphon.constant(0.0), 1, 50, dirac(0.0), seed=3)
        ts = run_system_a(pop, sol)
        assert np.all(np.isfinite(ts.paths))

    def test_all_ones_graph_constant_drift(self):
        # f = 1 under g = 1 gives drift u; with cost u^2 on [1, 2] and no
        # state cost the optimal control is u = 1 everywhere
        p = ProblemFunctions.structured(Constant(0.0), Constant(1.0), Constant(0.0),
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (1, 2), 0.2, 1.0)
        sol = solve_instance(p, Graphon.constant(1.0), M=2, K=40, R=400)
        assert np.all(sol.policy == 1.0)
        pop = build_population(Graphon.constant(1.0), 2, 100,
                               dirac(0.0), seed=6)
        ts = run_system_a(pop, sol)
        drift_T = ts.paths[:, -1].mean()
        assert abs(drift_T - 1.0) < 3 * 0.2 / math.sqrt(pop.N)

    def test_within_cluster_exchangeability(self, coupled_solution):
        pop = build_population(Graphon.uniform_attachment(), 4, 40,
                               normal_quantile_measure(0.0, 0.3, 65), seed=8)
        ts = run_system_a(pop, coupled_solution)
        idx = np.flatnonzero(pop.cluster_of == 1)
        half = len(idx) // 2
        m1 = ts.paths[idx[:half]].mean(axis=0)
        m2 = ts.paths[idx[half:]].mean(axis=0)
        band = 4 * ts.paths[idx].std() / math.sqrt(half)
        assert np.abs(m1 - m2).max() < band


class TestSystemB:
    def test_equilibrium_deviation_reproduces_a(self, coupled_solution):
        pop = build_population(Graphon.uniform_attachment(), 4, 25,
                               normal_quantile_measure(0.0, 0.3, 65), seed=12)
        ts_a = run_system_a(pop, coupled_solution, cost_agents=(0,))
        solver_pol = solved_policy(coupled_solution, 0)
        ts_b = run_system_b(pop, coupled_solution, 0, solver_pol, cost_agents=(0,))
        assert np.array_equal(ts_a.paths, ts_b.paths)
        assert ts_a.costs[0] == pytest.approx(ts_b.costs[0], abs=1e-15)

    def test_constant_deviation_costs_at_least_equilibrium(self, coupled_solution):
        pops = [build_population(Graphon.uniform_attachment(), 4, 25,
                                 normal_quantile_measure(0.0, 0.3, 65), seed=100 + r)
                for r in range(6)]
        eq, lo = [], []
        for pop in pops:
            eq.append(run_system_a(pop, coupled_solution, cost_agents=(0,)).costs[0])
            lo.append(run_system_b(pop, coupled_solution, 0,
                                   lambda t, xi, xs: -1.0, cost_agents=(0,)).costs[0])
        diff = np.asarray(lo) - np.asarray(eq)
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert diff.mean() > -3 * se

    def test_single_agent_population(self, uncoupled_solution):
        pop = build_population(Graphon.constant(0.0), 1, 1, dirac(0.0), seed=2)
        ts = run_system_b(pop, uncoupled_solution, 0, lambda t, xi, xs: 0.5,
                          cost_agents=(0,))
        assert ts.paths.shape[0] == 1
        assert ts.deviator_controls == pytest.approx(0.5)

    def test_centralized_feedback_signature(self, coupled_solution):
        pop = build_population(Graphon.uniform_attachment(), 4, 10,
                               normal_quantile_measure(0.0, 0.3, 65), seed=13)
        psi = lambda t, xi, xs: np.clip(np.mean(xs) - xi, -1, 1)
        ts = run_system_b(pop, coupled_solution, 2, psi)
        assert np.all(np.isfinite(ts.paths))


def _dense_cluster_average(pop):
    avg = np.zeros((pop.N, pop.M_k))
    avg[np.arange(pop.N), pop.cluster_of] = 1.0 / pop.size
    return avg


def _pairwise_drift_reference(p, pop, clusters, x, u):
    # every coefficient evaluated on all N^2 agent pairs of each stacked row
    avg = _dense_cluster_average(pop)
    W = pop.graph.matrix[pop.cluster_of] / pop.M_k
    s = p.structured_parts
    out = np.empty_like(x)
    for r, xr in enumerate(x):
        cm0 = s["f0"](xr[:, None], xr[None, :]) @ avg
        cmf = s["f"](xr[:, None], xr[None, :]) @ avg
        coef = cm0[np.arange(pop.N), pop.cluster_of] + (W * cmf).sum(axis=1)
        out[r] = coef * u[r]
    return out


def _running_costs_reference(p, pop, clusters, x, u, agents):
    avg = _dense_cluster_average(pop)
    s = p.structured_parts
    out = np.empty((x.shape[0], len(agents)))
    for r, xr in enumerate(x):
        for j, i in enumerate(agents):
            W = pop.graph.matrix[pop.cluster_of[i]] / pop.M_k
            m1, m2, m3, m4 = (s[name](xr[i], xr) @ avg
                              for name in ("l1", "l2", "l3", "l4"))
            own = pop.cluster_of[i]
            out[r, j] = (m1[own] + m2[own] * u[r, i]**2 + W @ m3
                         + (W @ m4) * u[r, i]**2)
    return out


class TestClusterBrackets:
    def test_systems_a_and_b_match_pairwise_reference(self, coupled_solution,
                                                      monkeypatch):
        from gmfg import population

        pop = build_population(Graphon.uniform_attachment(), 4, 4,
                               normal_quantile_measure(0.0, 0.3, 65), seed=17)
        psi = lambda t, xi, xs: np.clip(np.mean(xs) - xi, -1, 1)

        def runs():
            return (run_system_a(pop, coupled_solution, cost_agents=(0, 5)),
                    run_system_b(pop, coupled_solution, 4, psi,
                                 cost_agents=(0, 4, 13)))

        exact = runs()
        monkeypatch.setattr(population, "_empirical_drift",
                            _pairwise_drift_reference)
        monkeypatch.setattr(population, "_running_costs",
                            _running_costs_reference)
        dense = runs()
        for a, b in zip(exact, dense):
            np.testing.assert_allclose(a.paths, b.paths, rtol=0, atol=1e-12)
            assert a.costs.keys() == b.costs.keys()
            for i in a.costs:
                assert a.costs[i] == pytest.approx(b.costs[i], rel=0, abs=1e-12)
        np.testing.assert_allclose(exact[1].deviator_controls,
                                   dense[1].deviator_controls, rtol=0, atol=1e-12)


class TestStackedRuns:
    def test_stack_equals_one_row_runs_bit_for_bit(self, graphon_coupled_solution):
        from gmfg.population import random_lipschitz_policy, simulate_coupled

        coupled_solution = graphon_coupled_solution
        problem = coupled_solution.problem
        law = normal_quantile_measure(0.0, 0.3, 65)
        pops = [build_population(Graphon.uniform_attachment(), 4, 4,
                                 law, seed=17 + r) for r in range(3)]
        on_grid = solved_policy(coupled_solution, 1)
        off_grid = Policy(np.linspace(-0.5, 0.5, 55).reshape(5, 11),
                          np.linspace(-2.0, 2.0, 11),
                          np.linspace(0.0, problem.functions.T, 5), (-1.0, 1.0))
        members = [None,
                   lambda t, xi, xs: np.clip(np.mean(xs) - xi, -1, 1),
                   on_grid,
                   random_lipschitz_policy(problem, 5, 0),
                   off_grid]
        rows = [(pop, m) for pop in pops for m in members]
        iota, agents = 4, (0, 4, 13)
        stacked = simulate_coupled([pop for pop, _ in rows], coupled_solution,
                                   [m for _, m in rows], iota, agents)
        assert len(stacked) == len(rows)
        for (pop, m), ts in zip(rows, stacked):
            alone = simulate_coupled([pop], coupled_solution, [m], iota, agents)[0]
            assert np.array_equal(ts.paths, alone.paths)
            assert ts.costs == alone.costs and list(ts.costs) == list(agents)
            if m is None:
                assert ts.label == "A" and ts.deviator is None
                assert ts.deviator_controls is None
            else:
                assert ts.label == "B" and ts.deviator == iota
                assert np.array_equal(ts.deviator_controls, alone.deviator_controls)
        for r in range(len(pops)):
            a = run_system_a(pops[r], coupled_solution, cost_agents=agents)
            assert np.array_equal(a.paths, stacked[r * len(members)].paths)
            assert a.costs == stacked[r * len(members)].costs

    def test_long_stack_runs_in_chunks_of_rows(self, graphon_coupled_solution,
                                              monkeypatch):
        from gmfg import population

        law = normal_quantile_measure(0.0, 0.3, 65)
        pops = [build_population(Graphon.uniform_attachment(), 4, 4,
                                 law, seed=40 + r) for r in range(5)]
        members = [None, lambda t, xi, xs: np.clip(np.mean(xs) - xi, -1, 1),
                   None, solved_policy(graphon_coupled_solution, 2), None]
        whole = population.simulate_coupled(pops, graphon_coupled_solution,
                                            members, 4, (0, 4))
        calls = []
        run = population.simulate_coupled

        def spy(pops, *args):
            calls.append(len(pops))
            return run(pops, *args)

        # two rows of 16 agents in 4 clusters per chunk
        monkeypatch.setattr(population, "_STACK_CELLS", 2 * 16 * 4 + 13)
        monkeypatch.setattr(population, "simulate_coupled", spy)
        chunked = population.simulate_coupled(pops, graphon_coupled_solution,
                                              members, 4, (0, 4))
        assert calls == [5, 2, 2, 1]
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.paths, b.paths) and a.costs == b.costs
            assert a.label == b.label
            if a.deviator_controls is not None:
                assert np.array_equal(a.deviator_controls, b.deviator_controls)

    def test_rows_need_one_structure_and_a_deviator(self, coupled_solution):
        from gmfg.population import simulate_coupled

        law = normal_quantile_measure(0.0, 0.3, 65)
        pops = [build_population(Graphon.uniform_attachment(), 4, size, law,
                                 seed=3) for size in (4, 3)]
        with pytest.raises(GridError):
            simulate_coupled(pops, coupled_solution, [None, None])
        with pytest.raises(GridError):
            simulate_coupled(pops[:1], coupled_solution, [None, None])
        with pytest.raises(GridError, match="deviator iota"):
            simulate_coupled(pops[:1], coupled_solution, [lambda t, xi, xs: 0.0])


def reference_field_paths(pop, solution, fields):
    """Agents under per-cluster frozen drift fields, step by step: each
    cluster's agents read its drift and policy rows with np.interp."""
    problem = solution.problem
    p, K = problem.functions, problem.K
    dt = p.T / K
    table = _cluster_policy(pop, solution)
    noise = rng.stream(pop.seed, rng.POP_BROWNIAN).standard_normal((pop.N, K))
    paths = np.empty((pop.N, K + 1))
    x = paths[:, 0] = pop.initial_states
    for k in range(K):
        drift = np.empty(pop.N)
        for c in range(pop.M_k):
            i = pop.cluster_of == c
            drift[i] = (np.interp(x[i], fields.x_grid, fields.drift_coef[c, k])
                        * np.interp(x[i], fields.x_grid, table[c, k]))
        x = x + drift * dt + p.sigma * math.sqrt(dt) * noise[:, k]
        paths[:, k + 1] = x
    return paths


class TestSystemCD:
    def test_c_and_d_match_interp_reference(self, coupled_solution):
        """Systems C and D run the closed-loop kernel on the agents' buffer
        as (cluster, agent) rows: the bits of a per-cluster np.interp loop."""
        pop = build_population(Graphon.uniform_attachment(), 4, 5,
                               normal_quantile_measure(0.0, 0.3, 65), seed=27)
        ts_d = run_system_d(pop, coupled_solution)
        want_d = reference_field_paths(pop, coupled_solution,
                                       system_d_fields(pop, coupled_solution))
        assert np.array_equal(ts_d.paths, want_d)
        ts_c = run_system_c(pop, coupled_solution)
        fields, _ = system_c_fields(pop, coupled_solution)
        assert np.array_equal(ts_c.paths,
                              reference_field_paths(pop, coupled_solution, fields))
        assert not np.array_equal(ts_c.paths, ts_d.paths)

    def test_nan_drift_row_raises(self, coupled_solution):
        """A non-finite drift row fails System D at its cluster instead of
        returning non-finite paths."""
        pop = build_population(Graphon.uniform_attachment(), 4, 5,
                               normal_quantile_measure(0.0, 0.3, 65), seed=27)
        fields = system_d_fields(pop, coupled_solution)
        fields.drift_coef[2, 5] = np.nan
        with pytest.raises(NumericalError, match="diverged at row 2"):
            run_system_d(pop, coupled_solution, fields=fields)

    def test_uncoupled_c_equals_a_pathwise(self, uncoupled_solution):
        pop = build_population(Graphon.constant(0.0), 2, 30, dirac(0.0),
                               seed=21)
        ts_a = run_system_a(pop, uncoupled_solution)
        ts_c = run_system_c(pop, uncoupled_solution)
        ts_d = run_system_d(pop, uncoupled_solution)
        # measure-independent drift with a constant coefficient: identical
        np.testing.assert_allclose(ts_c.paths, ts_a.paths, atol=1e-12)
        np.testing.assert_allclose(ts_d.paths, ts_a.paths, atol=1e-12)

    def test_cluster_law_exchangeable(self, coupled_solution):
        pop = build_population(Graphon.uniform_attachment(), 4, 30,
                               normal_quantile_measure(0.0, 0.3, 65), seed=23)
        ts_c = run_system_c(pop, coupled_solution)
        problem = coupled_solution.problem
        clone = GMFGProblem(problem.functions, pop.graph, pop.initial_law, M=pop.M_k,
                            K=problem.K, N_x=problem.N_x,
                            domain=(problem.x_grid[0], problem.x_grid[-1]))
        _, laws, _ = inner_mv_consistency(clone, _cluster_policy(pop, coupled_solution))
        idx = np.flatnonzero(pop.cluster_of == 2)
        terminal = ts_c.paths[idx, -1]
        law = laws.get(2, problem.K)
        band = 3 * terminal.std() / math.sqrt(len(idx)) + 0.1
        assert w1(empirical(terminal), law) < band

    def test_ladder_solves_cluster_laws_once_per_rung(self, monkeypatch, law_solves):
        """Over a two-replication ladder the law loop runs once per rung,
        not once per replication, and each rung reports the law solves
        under the policy that its loop made."""
        from gmfg import population

        real = population.inner_mv_consistency
        passes = []

        def spy(*args, **kwargs):
            before = sum(law_solves)
            result = real(*args, **kwargs)
            passes.append(sum(law_solves) - before)
            return result

        monkeypatch.setattr(population, "inner_mv_consistency", spy)

        def make_problem(M):
            return GMFGProblem(coupled_problem(), Graphon.uniform_attachment(),
                               normal_quantile_measure(0.0, 0.3, 65), M=M, K=12,
                               N_x=61, R=200, seed=3)

        rungs = list(run_ladder(make_problem, [(1, 3), (2, 3)], n_reps=2,
                                solver_kwargs={"tol": 0.1}))
        assert len(passes) == 2
        assert [r["system_c_law_passes"] for r in rungs] == passes

    def test_shipped_rungs_take_at_most_four_law_solves(self, law_solves):
        """On every rung of the shipped ladder, System C's law loop starts
        from the rung's solved law, which is close to the cluster laws: it
        makes at most four law solves under the policy (six from the
        pure-diffusion law), and reports each of them."""
        import os

        from gmfg.scenario import parse_scenario

        scenario = parse_scenario(os.path.join(os.path.dirname(__file__), "..", "demos",
                                               "scenarios", "enash_ladder.json"))
        for M_k, size in scenario.rungs:
            problem = scenario.build_problem(M_k)
            solution = picard_solve(problem, tol=scenario.picard_tol,
                                    max_outer=scenario.max_outer)
            pop = build_population(problem.graphon, M_k, size, problem.initial_law,
                                   seed=problem.seed + 7919)
            law_solves.clear()
            _, passes = system_c_fields(pop, solution)
            assert passes == sum(law_solves) == len(law_solves) <= 4

    def test_cluster_start_reads_the_nearest_vertex(self, coupled_solution):
        """A population whose clusters are not the solver's vertices starts
        its law loop from the solved law of each cluster's policy vertex,
        and its fields are those of the pure-diffusion start to rounding."""
        pop = build_population(Graphon.uniform_attachment(), 2, 5,
                               normal_quantile_measure(0.0, 0.3, 65), seed=27)
        problem = coupled_solution.problem
        fields, passes = system_c_fields(pop, coupled_solution)
        clone = GMFGProblem(problem.functions, pop.graph, pop.initial_law, M=pop.M_k,
                            K=problem.K, N_x=problem.N_x,
                            domain=(problem.x_grid[0], problem.x_grid[-1]))
        _, laws, _ = inner_mv_consistency(clone, _cluster_policy(pop, coupled_solution))
        assert passes >= 1
        np.testing.assert_allclose(fields.drift_coef,
                                   _drift_fields(clone, laws).drift_coef, rtol=0, atol=1e-12)

    def test_d_marginals_match_solution_ensemble(self, coupled_solution):
        pop = build_population(Graphon.uniform_attachment(), 4, 100,
                               normal_quantile_measure(0.0, 0.3, 65), seed=25)
        ts_d = run_system_d(pop, coupled_solution)
        K = coupled_solution.problem.K
        for l in (0, 3):
            emp = empirical(ts_d.paths[pop.cluster_of == l, K])
            ref = coupled_solution.ensemble.get(l, K)
            floor = 3 * 0.3 / math.sqrt(100)
            assert w1(emp, ref) < floor + 0.08


class TestDeviationMetrics:
    def test_uncoupled_metrics_vanish(self, uncoupled_solution):
        reps_a, reps_c, reps_d = [], [], []
        for r in range(3):
            pop = build_population(Graphon.constant(0.0), 2, 20,
                                   dirac(0.0), seed=40 + r)
            reps_a.append(run_system_a(pop, uncoupled_solution))
            reps_c.append(run_system_c(pop, uncoupled_solution))
            reps_d.append(run_system_d(pop, uncoupled_solution))
        rep = deviation_metrics(reps_a, reps_c, reps_d, cluster_of=pop.cluster_of)
        assert rep["eps1"] < 1e-12 and rep["eps2"] < 1e-12

    def test_metrics_positive_and_ordered(self, coupled_solution):
        reps_a, reps_c, reps_d, fam = [], [], [], {}
        pops = []
        for r in range(4):
            pop = build_population(Graphon.uniform_attachment(), 4, 25,
                                   normal_quantile_measure(0.0, 0.3, 65),
                                   seed=60 + r)
            pops.append(pop)
            reps_a.append(run_system_a(pop, coupled_solution))
            reps_c.append(run_system_c(pop, coupled_solution))
            reps_d.append(run_system_d(pop, coupled_solution))
            fam.setdefault("const_mid", []).append(
                run_system_b(pop, coupled_solution, 0, lambda t, xi, xs: 0.0))
        rep = deviation_metrics(reps_a, reps_c, reps_d, fam, cluster_of=pop.cluster_of)
        assert rep["eps1"] > 0 and rep["eps2"] > 0 and rep["eps3"] > 0
        # triangle-style ordering within noise
        noise = 2 * (rep["eps1_se"] + rep["eps2_se"] + rep["eps3_se"])
        assert rep["eps3"] >= rep["eps2"] - rep["eps1"] - noise

    def test_alignment_required(self, uncoupled_solution):
        pop = build_population(Graphon.constant(0.0), 2, 5, dirac(0.0), seed=1)
        a = run_system_a(pop, uncoupled_solution)
        with pytest.raises(GridError):
            deviation_metrics([a], [], [], cluster_of=pop.cluster_of)


class TestNashGap:
    def test_gap_zero_for_equilibrium_only_family(self, coupled_solution):
        pops = [build_population(Graphon.uniform_attachment(), 4, 20,
                                 normal_quantile_measure(0.0, 0.3, 65), seed=70)]
        builder = lambda pop, sol, ts_a, iota: {"self": solved_policy(sol, 0)}
        rep = _assemble_gap_report(
            *_equilibrium_and_deviations(pops, coupled_solution, 0, builder), 0)
        assert rep["gap"] == 0.0
        assert rep["family"] == ("self",)

    def test_default_family_reports_costs(self, coupled_solution):
        pops = [build_population(Graphon.uniform_attachment(), 4, 15,
                                 normal_quantile_measure(0.0, 0.3, 65),
                                 seed=80 + r) for r in range(3)]
        ts_a, b_fam = _equilibrium_and_deviations(pops, coupled_solution, 0,
                                                  default_deviation_family)
        rep = _assemble_gap_report(ts_a, b_fam, 0)
        assert rep["gap"] >= 0.0
        eq = np.array([a.costs[0] for a in ts_a])
        assert rep["equilibrium_cost"] == eq.mean()
        assert rep["equilibrium_cost_se"] == eq.std(ddof=1) / math.sqrt(3)
        assert set(rep["family"]) == {"const_lo", "const_hi", "const_mid",
                                   "empirical_br", "random_0", "random_1",
                                   "random_2"}
        assert all(len(v) == 2 for v in rep["deviation_costs"].values())

    def test_default_family_members_behave(self, coupled_solution):
        pop = build_population(Graphon.uniform_attachment(), 4, 15,
                               normal_quantile_measure(0.0, 0.3, 65), seed=90)
        ts_a = run_system_a(pop, coupled_solution)
        fam = default_deviation_family(pop, coupled_solution, ts_a, 0)
        assert fam["const_lo"](0.0, 0.0, None) == -1.0
        br = fam["empirical_br"]
        assert policy_lipschitz(br.values, br.x_grid) < 50.0

    def test_gap_vanishes_without_coupling(self, uncoupled_solution):
        # every agent already plays its single-agent optimum, so no family
        # member can improve beyond noise and discretization
        pops = [build_population(Graphon.constant(0.0), 2, 20,
                                 dirac(0.0), seed=300 + r) for r in range(4)]
        rep = _assemble_gap_report(*_equilibrium_and_deviations(
            pops, uncoupled_solution, 0, default_deviation_family), 0)
        problem = uncoupled_solution.problem
        band = 5 * max(problem.x_grid[1] - problem.x_grid[0],
                       problem.times[1] - problem.times[0])
        assert rep["gap"] < 3 * rep["gap_se"] + band


class TestPerturbationTerms:
    def test_uncoupled_terms_vanish(self, uncoupled_solution):
        pop = build_population(Graphon.constant(0.0), 2, 20, dirac(0.0),
                               seed=31)
        ts = run_system_b(pop, uncoupled_solution, 0,
                          solved_policy(uncoupled_solution, 0))
        out = perturbation_terms([ts], pop, uncoupled_solution)
        # x^2 cost bracket differs only through interpolation-free sums
        assert out["delta_f0"] < 1e-9
        assert out["delta_f"] < 1e-9
        assert out["eps_fl"] < 0.05

    def test_stacked_terms_match_brute_force_means(self, graphon_coupled_solution):
        """Replications share one SortedClusters per node; every term still equals its mean over the raw samples, the
        graphon ones included (here every coefficient but l2 reads y)."""
        from gmfg import VertexGrid

        solution = graphon_coupled_solution
        pops = [build_population(Graphon.uniform_attachment(), 4, 4,
                                 normal_quantile_measure(0.0, 0.3, 65), seed=41 + r)
                for r in range(3)]
        psi = lambda t, xi, xs: np.clip(np.mean(xs) - xi, -1, 1)
        iota = 4
        runs = [run_system_b(pop, solution, iota, psi) for pop in pops]
        got = perturbation_terms(runs, pops[0], solution)

        pop, problem, ens = pops[0], solution.problem, solution.ensemble
        s = problem.functions.structured_parts
        mid = VertexGrid(ens.n_vertices).midpoints
        v_own = int(np.argmin(np.abs(mid - pop.midpoint(iota))))
        gw = problem.graphon.evaluate(pop.midpoint(iota), mid) / mid.size
        own = pop.cluster_of[iota]
        W = pop.graph.matrix[own] / pop.M_k
        sums = np.zeros((4, problem.K))
        for k in range(problem.K):
            for ts in runs:
                x, u = ts.paths[:, k], ts.deviator_controls[k]
                xi = x[iota]
                emp = {n: np.array([np.mean(s[n](xi, x[pop.cluster_of == l]))
                                    for l in range(pop.M_k)]) for n in s}
                lim = {n: np.array([np.sum(ens.weights[v, k] * s[n](xi, ens.atoms[v, k]))
                                    for v in range(ens.n_vertices)]) for n in s}
                e = [emp["f0"][own] * u, W @ emp["f"] * u,
                     emp["l1"][own] + emp["l2"][own] * u**2,
                     W @ emp["l3"] + W @ emp["l4"] * u**2]
                lm = [lim["f0"][v_own] * u, gw @ lim["f"] * u,
                      lim["l1"][v_own] + lim["l2"][v_own] * u**2,
                      gw @ lim["l3"] + gw @ lim["l4"] * u**2]
                sums[:, k] += np.abs(np.array(e) - np.array(lm))
        means = sums / len(runs)
        want = {f"delta_{n}": m.max() for n, m in zip(("f0", "f", "l0", "l"), means)}
        want["eps_fl"] = means.sum(axis=0).max()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12)

    def test_limit_brackets_use_the_problem_compression(self, coupled_solution,
                                                        monkeypatch):
        """The problem carries no compression: the limit brackets of
        frozen_fields and perturbation_terms integrate the full vertex
        measures and never compress an ensemble."""
        from gmfg import MeasureEnsemble, frozen_fields

        pop = build_population(Graphon.uniform_attachment(), 4, 5,
                               normal_quantile_measure(0.0, 0.3, 65), seed=33)
        ts = run_system_b(pop, coupled_solution, 0, lambda t, xi, xs: 0.5)
        real = MeasureEnsemble.compress
        seen = []

        def spy(self, n):
            seen.append(n)
            return real(self, n)

        monkeypatch.setattr(MeasureEnsemble, "compress", spy)
        problem = coupled_solution.problem
        assert not hasattr(problem, "compress_q")
        frozen_fields(problem.functions, problem.graphon,
                      problem.vertex_grid.midpoints, coupled_solution.ensemble,
                      problem.x_grid)
        perturbation_terms([ts], pop, coupled_solution)
        assert seen == []

    def test_cluster_fields_compress_each_ensemble_once(self, coupled_solution,
                                                        monkeypatch):
        """At most once, and now never: system_d_fields and run_system_c
        build their fields from the exact cluster measures."""
        from gmfg import MeasureEnsemble
        from gmfg.population import system_d_fields

        pop = build_population(Graphon.uniform_attachment(), 4, 5,
                               normal_quantile_measure(0.0, 0.3, 65), seed=33)
        real = MeasureEnsemble.compress
        seen = []

        def spy(self, n):
            seen.append(n)
            return real(self, n)

        monkeypatch.setattr(MeasureEnsemble, "compress", spy)
        system_d_fields(pop, coupled_solution)
        assert seen == []
        run_system_c(pop, coupled_solution)
        assert seen == []

    def test_system_c_draws_no_law_noise(self, coupled_solution, monkeypatch):
        """System C's cluster laws are grid laws: a run draws no propagation
        stream, only its agents' Brownian increments."""
        from gmfg import rng

        pop = build_population(Graphon.uniform_attachment(), 4, 5,
                               normal_quantile_measure(0.0, 0.3, 65), seed=33)
        real = rng.stream
        kinds = []

        def spy(seed, *tags):
            kinds.append(tags[0])
            return real(seed, *tags)

        monkeypatch.setattr(rng, "stream", spy)
        run_system_c(pop, coupled_solution)
        assert rng.PROPAGATE not in kinds
        assert kinds == [rng.POP_BROWNIAN]

    @pytest.mark.slow
    def test_intra_term_clt_slope(self):
        sol = solve_instance(coupled_problem(), Graphon.constant(0.5), M=1,
                             K=24, R=2000)
        sizes = (64, 256, 1024)
        vals = []
        for size in sizes:
            per_rep = []
            for r in range(8):
                pop = build_population(Graphon.constant(0.5), 1, size,
                                       normal_quantile_measure(0.0, 0.3, 65),
                                       seed=200 + 17 * r)
                ts = run_system_b(pop, sol, 0, solved_policy(sol, 0))
                per_rep.append(ts)
            out = perturbation_terms(per_rep, pop, sol)
            vals.append(out["delta_f0"])
        slope = np.polyfit(np.log(sizes), np.log(vals), 1)[0]
        assert -0.8 < slope < -0.2
