import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfg import (ConfigError, Constant, Graphon, InvariantError,
                  MeasureEnsemble, Policy, Poly2, ProblemFunctions, frozen_fields,
                  minimize_hamiltonian, normal_quantile_measure, policy_lipschitz,
                  rollout_cost, solve_hjb, theta_clamp)
from gmfg.coefficients import SortedClusters
from gmfg.control import GridLookup, brackets
from gmfg.graphon import VertexGrid


tracking = Poly2(xx=1.0, xy=-2.0, yy=1.0)


def dirac_ensemble(c, M, K, T):
    times = np.linspace(0.0, T, K + 1)
    atoms = np.full((M, K + 1, 1), float(c))
    return MeasureEnsemble(atoms, times)


def structured_lq_like(u_box=(-10, 10), sigma=0.3, T=1.0):
    # drift u, cost x^2 + u^2
    return ProblemFunctions.structured(
        Constant(1.0), Constant(0.0), Poly2(xx=1.0),
        Constant(1.0), Constant(0.0), Constant(0.0), u_box, sigma, T)


class TestProblemFunctions:
    def test_validation(self):
        with pytest.raises(InvariantError):
            structured_lq_like(u_box=(1, 1))
        with pytest.raises(InvariantError):
            ProblemFunctions.structured(Constant(0), Constant(0), Constant(0),
                                        Constant(0), Constant(0), Constant(0),
                                        (-1, 1), 0.3, 1.0)  # l2+l4 floor
        with pytest.raises(InvariantError):
            ProblemFunctions.structured(Constant(0), Constant(0), Constant(0),
                                        Constant(1), Constant(0), Constant(0),
                                        (-1, 1), 0.0, 1.0)  # sigma

    def test_structured_floor_records_c0(self):
        p = ProblemFunctions.structured(Constant(0), Constant(1), tracking,
                                        Constant(0.0), Constant(0), Constant(1),
                                        (-1, 1), 0.3, 0.5)


class TestThetaClamp:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(-10, 10))
    def test_clamp_cases(self, s):
        a, b = -1.0, 2.0
        u = theta_clamp(s, a, b)
        if s <= a:
            assert u == a
        elif s >= b:
            assert u == b
        else:
            assert u == s
        # u minimizes u^2 - 2su over [a,b]
        grid = np.linspace(a, b, 400)
        assert u**2 - 2 * s * u <= np.min(grid**2 - 2 * s * grid) + 1e-9


class TestFrozenFields:
    def test_zero_graphon_kills_coupling_term(self):
        p = ProblemFunctions.structured(Constant(1.0), Constant(1.0), tracking,
                                        Constant(1.0), Constant(0.0), Constant(1.0),
                                        (-1, 1), 0.3, 0.5)
        ens = dirac_ensemble(0.7, 4, 8, 0.5)
        x_grid = np.linspace(-2, 2, 41)
        f_zero = frozen_fields(p, Graphon.constant(0.0), 0.375, ens, x_grid)
        f_one = frozen_fields(p, Graphon.constant(1.0), 0.375, ens, x_grid)
        # with g = 0 only the intra bracket is active: drift coefficient 1
        np.testing.assert_allclose(f_zero.drift_coef[0, 0], 1.0)
        np.testing.assert_allclose(f_one.drift_coef[0, 0], 2.0)

    def test_generic_mixture_of_diracs(self):
        # f(x,y) = y against delta_c at every vertex with g = 1 gives c u
        p = ProblemFunctions.structured(Constant(0.0), Poly2(y=1.0),
                                        Constant(0.0), Constant(0.0), Constant(0.0),
                                        Constant(1.0), (-1, 1), 0.3, 0.5)
        c = -0.35
        ens = dirac_ensemble(c, 6, 4, 0.5)
        fl = frozen_fields(p, Graphon.constant(1.0), 0.25, ens, np.linspace(-1, 1, 11))
        np.testing.assert_allclose(fl.drift_coef[0, 2] * 0.3, 0.3 * c, atol=1e-12)

    def test_uniform_attachment_section_weight(self):
        # f0 = 0, f = 1: the drift coefficient equals the section integral
        p = ProblemFunctions.structured(Constant(0.0), Constant(1.0), tracking,
                                        Constant(0.0), Constant(0.0), Constant(1.0),
                                        (-1, 1), 0.3, 0.5)
        ens = dirac_ensemble(0.0, 16, 4, 0.5)
        fl = frozen_fields(p, Graphon.uniform_attachment(), 0.5, ens,
                           np.linspace(-1, 1, 11))
        np.testing.assert_allclose(fl.drift_coef[0, 0], 0.375, atol=1e-12)

    def test_vertex_alone_equals_its_row_of_a_batch(self):
        """A nonzero section weights the graphon columns the same way for
        one vertex as for a batch, so every table row is bit-equal."""
        p = ProblemFunctions.structured(Constant(0.0), Poly2(y=0.3), tracking,
                                        Constant(1.0), Poly2(const=0.2, yy=0.1),
                                        Constant(1.0), (-1, 1), 0.3, 0.5)
        atoms = np.random.default_rng(11).normal(0.0, 0.7, (3, 5, 50))
        ens = MeasureEnsemble(atoms, np.linspace(0.0, 0.5, 5))
        x_grid = np.linspace(-2, 2, 41)
        alphas = (np.arange(3) + 0.5) / 3
        g = Graphon.uniform_attachment()
        batch = frozen_fields(p, g, alphas, ens, x_grid)
        for v, alpha in enumerate(alphas):
            alone = frozen_fields(p, g, alpha, ens, x_grid)
            for name in ("drift_coef", "cost_const", "cost_quad"):
                assert np.array_equal(getattr(batch, name)[v], getattr(alone, name)[0])

    @staticmethod
    def _clipped_problem():
        # f0 clipped linear in y (two cuts), l3 clipped quadratic in y (four),
        # f and l1 unclipped, l2 and l4 constant
        return ProblemFunctions.structured(
            Poly2(x=-1.0, y=1.0, clip=(-0.5, 0.5)), Poly2(y=0.3, xy=0.2), tracking,
            Constant(1.0), Poly2(const=0.1, xy=-0.5, yy=0.5, clip=(0.0, 0.8)),
            Constant(0.5), (-1, 1), 0.3, 0.5)

    def test_planned_tables_equal_per_node_brackets(self, monkeypatch):
        """Bit for bit, the tables equal a loop that integrates every
        coefficient at every time node from scratch, for a batch of
        vertices and one vertex alone, whether the nodes are bracketed in
        one chunk or in several uneven ones: the 7 nodes of the small
        ensemble in one chunk and in chunks of 3, 3 and 1, bounded by its
        60 atoms on a 41-point grid and by the 101 points of a finer grid,
        and those of a particle-sized one in chunks of 3, 3 and 1 at the
        shipped bound."""
        from gmfg import control

        p = self._clipped_problem()
        rng = np.random.default_rng(5)
        atoms = np.sort(rng.normal(0.0, 0.8, (4, 7, 60)), axis=2)
        atoms[:, :, ::7] = 0.5   # ties, and atoms exactly on a cut at x = 0
        atoms.sort(axis=2)
        times = np.linspace(0.0, 0.5, 7)
        small = MeasureEnsemble(atoms, times)
        particles = MeasureEnsemble(rng.normal(0.0, 0.8, (4, 7, 5000)), times)
        assert control._CHUNK_CELLS // (4 * 5000) == 3
        coarse, fine = np.linspace(-2, 2, 41), np.linspace(-2, 2, 101)
        g = Graphon.uniform_attachment()
        grid = VertexGrid(4)
        s = p.structured_parts
        for ens, bound, x_grid, chunks in (
                (small, control._CHUNK_CELLS, coarse, [(0, 7)]),
                (small, 3 * 4 * 60, coarse, [(0, 3), (3, 6), (6, 7)]),
                (small, 3 * 4 * 101, fine, [(0, 3), (3, 6), (6, 7)]),
                (particles, control._CHUNK_CELLS, coarse, [(0, 3), (3, 6), (6, 7)])):
            monkeypatch.setattr(control, "_CHUNK_CELLS", bound)
            for alphas in ((np.arange(4) + 0.5) / 4, np.array([0.3])):
                seen = []

                def spy(k, stop=None, ens=ens, seen=seen):
                    seen.append((k, stop))
                    return MeasureEnsemble.clusters(ens, k, stop)

                ens.clusters = spy   # the chunks frozen_fields brackets
                try:
                    fields = frozen_fields(p, g, alphas, ens, x_grid)
                finally:
                    del ens.clusters
                assert seen == chunks, (bound, x_grid.size)
                v_own, gw = grid.nearest(alphas), grid.section_weights(g, alphas)
                for name, intra, coupled in (("drift_coef", "f0", "f"),
                                             ("cost_const", "l1", "l3"),
                                             ("cost_quad", "l2", "l4")):
                    table = np.empty((alphas.size, 7, x_grid.size))
                    for k in range(7):
                        clusters = ens.clusters(k)
                        own = s[intra].plan(x_grid).apply(clusters.view(v_own[None, :]))
                        m = s[coupled].plan(x_grid).apply(clusters)
                        mixed = np.matmul(m, gw[:, :, None])[:, :, 0].T
                        table[:, k] = (own + mixed).T
                    assert np.array_equal(getattr(fields, name), table), (name, bound)

    def test_clip_set_up_runs_once_per_call(self, monkeypatch):
        """The roots of a clipped coefficient are found on the grid once per
        call, one search per clip level, not once per time node."""
        calls = []
        roots = Poly2._roots

        def spy(self, a, b, level):
            calls.append(level)
            return roots(self, a, b, level)

        monkeypatch.setattr(Poly2, "_roots", spy)
        p = self._clipped_problem()
        ens = MeasureEnsemble(np.random.default_rng(6).normal(size=(3, 9, 20)),
                              np.linspace(0.0, 0.5, 9))
        frozen_fields(p, Graphon.uniform_attachment(), 0.5, ens, np.linspace(-2, 2, 41),
                      drift_only=True)
        assert calls == [-0.5, 0.5]
        calls.clear()
        frozen_fields(p, Graphon.uniform_attachment(), 0.5, ens, np.linspace(-2, 2, 41))
        assert sorted(calls) == [-0.5, 0.0, 0.5, 0.8]


class TestBrackets:
    def test_replication_alone_rounds_as_in_a_batch(self):
        """Each replication row of a clipped graphon bracket, as the
        perturbation terms read it, gets the bits of its point and its
        clusters alone."""
        coef = Poly2(y=1.0, x=-1.0, clip=(-2.0, 2.0))
        M_k, n, reps = 4, 50, 6
        own_cluster = 1
        for seed in range(5):
            rng = np.random.default_rng(seed)
            states = rng.normal(0.0, 0.8, (reps, M_k * n))
            xi = states[:, own_cluster * n]
            weights = rng.uniform(0.2, 0.7, (1, 1, M_k)) / M_k
            plans = {"f0": coef.plan(xi), "f": coef.plan(xi)}
            clusters = SortedClusters(states.reshape(reps * M_k, n))
            first = np.arange(reps)[:, None] * M_k
            batch = brackets(plans, ("f0", "f"), clusters.view(first + own_cluster),
                             clusters.view(first + np.arange(M_k)), weights)
            for r in range(reps):
                alone = SortedClusters(states[r].reshape(M_k, n))
                one = {"f0": coef.plan(xi[r:r + 1]), "f": coef.plan(xi[r:r + 1])}
                got = brackets(one, ("f0", "f"), alone.view([[own_cluster]]), alone,
                               weights)
                for g, b in zip(got, batch):
                    assert g.shape == (1, 1)
                    assert np.array_equal(g[0], b[r]), (seed, r)

    def test_frozen_field_column_and_point_alone_round_as_in_a_batch(self):
        """With the frozen-field weights (one section row per vertex), a
        vertex alone (k = 1) gets the bits of its column of all M vertices,
        and a grid point alone those of its row of the grid."""
        rng = np.random.default_rng(8)
        M = 5
        clusters = SortedClusters(rng.normal(0.0, 0.8, (M, 40)))
        x = np.linspace(-2.0, 2.0, 201)
        grid = VertexGrid(M)
        gw = grid.section_weights(Graphon.uniform_attachment(), grid.midpoints)
        names = ("l1", "l3")
        for coef in (Poly2(const=0.1, xy=-0.5, yy=0.5, clip=(0.0, 0.8)),
                     Poly2(y=0.3, xy=0.2)):
            plans = dict.fromkeys(names, coef.plan(x))
            own, mixed = brackets(plans, names, clusters.view(np.arange(M)[None, :]),
                                  clusters, gw[None])
            assert mixed.shape == (x.size, M)
            for v in range(M):
                [col] = brackets(plans, ("l3",), None, clusters, gw[None, v:v + 1])
                assert np.array_equal(col[:, 0], mixed[:, v])
            for i in (0, 57, 200):
                point = dict.fromkeys(names, coef.plan(x[i:i + 1]))
                got = brackets(point, names, clusters.view(np.arange(M)[None, :]),
                               clusters, gw[None])
                assert np.array_equal(got[0][0], own[i])
                assert np.array_equal(got[1][0], mixed[i])


# Small dyadic numbers keep the arithmetic exact often enough that atoms
# tie and land exactly on a clip threshold; plain floats cover the rest.
numbers = st.one_of(st.integers(-6, 6).map(lambda v: v / 2.0),
                    st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def coefficients(draw, nonnegative=False):
    """A Constant, an unclipped Poly2 or a clipped Poly2; with
    ``nonnegative`` only those that are >= 0 everywhere."""
    kind = draw(st.sampled_from(["constant", "poly2", "clipped"]))
    if kind == "constant":
        c = draw(numbers)
        return Constant(abs(c) + 0.25 if nonnegative else c)
    terms = {k: draw(numbers) for k in ("const", "x", "y", "xx", "xy")}
    terms["yy"] = draw(st.one_of(st.just(0.0), numbers))
    if kind == "poly2" and not nonnegative:
        return Poly2(**terms)
    lo = abs(draw(numbers)) + 0.25 if nonnegative else draw(numbers)
    return Poly2(clip=(lo, lo + draw(st.integers(1, 4)) / 2.0), **terms)


@st.composite
def ensembles(draw):
    """An equal-weight ensemble of up to 4 vertices and 6 atoms per entry."""
    M, K, n = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 6))
    times = np.linspace(0.0, 0.5, K + 1)
    atoms = np.array(draw(st.lists(numbers, min_size=M * (K + 1) * n,
                                   max_size=M * (K + 1) * n))).reshape(M, K + 1, n)
    return MeasureEnsemble(atoms, times)


def brute_force_bracket(coef, x, ens, k, v):
    """Mean of coef(x, atom) over every atom of entry (v, k), each of
    weight ens.weights[v, k]."""
    w = ens.weights[v, k]
    return (coef(x[:, None], ens.atoms[v, k][None, :]) @ w) / w.sum()


def bracket_scale(coef, x, ens):
    """Bound on |coef| over the grid and the atoms, for a tolerance."""
    return 1.0 + float(np.abs(coef(x[:, None], ens.atoms.reshape(-1)[None, :])).max())


class TestExactBrackets:
    @settings(max_examples=150, deadline=None)
    @given(parts=st.tuples(coefficients(), coefficients(), coefficients(),
                           coefficients(nonnegative=True), coefficients(),
                           coefficients(nonnegative=True)),
           ens=ensembles(),
           g=st.sampled_from([Graphon.constant(1.0),
                              Graphon.step([[0.0, 0.0], [0.0, 0.7]]),
                              Graphon.from_table([[0.6, 0.45], [0.45, 0.3]])]),
           n_x=st.integers(2, 7))
    def test_tables_equal_brute_force(self, parts, ens, g, n_x):
        """Every frozen-field table is the exact intra bracket plus the
        graphon-weighted exact brackets; a zero section gives exactly 0."""
        p = ProblemFunctions.structured(*parts, (-1, 1), 0.3, 0.5)
        x = np.linspace(-3.0, 3.0, n_x)
        M = ens.n_vertices
        mids = (np.arange(M) + 0.5) / M
        alphas = np.array([0.1, 0.3, 0.6, 0.9])
        fl = frozen_fields(p, g, alphas, ens, x)
        uncoupled = ProblemFunctions.structured(
            parts[0], Constant(0.0), parts[2], parts[3], Constant(0.0),
            Constant(0.0), (-1, 1), 0.3, 0.5)
        fl_intra = frozen_fields(uncoupled, g, alphas, ens, x)
        s = p.structured_parts
        for a, alpha in enumerate(alphas):
            v_own = int(np.argmin(np.abs(mids - alpha)))
            gw = g.evaluate(alpha, mids) / M
            for name, intra, coupled in (("drift_coef", "f0", "f"),
                                         ("cost_const", "l1", "l3"),
                                         ("cost_quad", "l2", "l4")):
                got = getattr(fl, name)[a]
                tol = 1e-12 * (bracket_scale(s[intra], x, ens)
                               + bracket_scale(s[coupled], x, ens))
                for k in range(ens.n_times):
                    own = brute_force_bracket(s[intra], x, ens, k, v_own)
                    mixed = sum(gw[v] * brute_force_bracket(s[coupled], x, ens, k, v)
                                for v in range(M))
                    np.testing.assert_allclose(got[k], own + mixed, rtol=0, atol=tol)
                if not gw.any():
                    assert np.array_equal(got, getattr(fl_intra, name)[a])


class TestMinimizeHamiltonian:
    def _fields(self, p, g=None, M=4, K=6):
        g = g if g is not None else Graphon.constant(0.0)
        ens = dirac_ensemble(0.4, M, K, p.T)
        return frozen_fields(p, g, 0.375, ens, np.linspace(-3, 3, 61))

    def test_clamp_regimes(self):
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                        Constant(0.5), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.3, 1.0)
        fl = self._fields(p)
        # h = -1/(2*0.5) = -1, so u = clamp(-q); the first three grid nodes
        q = np.zeros((1, fl.x_grid.size))
        q[0, :3] = [2.0, 0.3, -5.0]
        u = minimize_hamiltonian(fl, 0, q)
        np.testing.assert_allclose(u[0, :3], [-1.0, -0.3, 1.0])

    def test_invariant_error_when_quadratic_bracket_vanishes(self):
        # l2 = 0 and l4 only reachable through g = 0: the bracket collapses
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                        Constant(0.0), Constant(0.0), Constant(1.0),
                                        (-1, 1), 0.3, 1.0)
        fl = self._fields(p, g=Graphon.constant(0.0))
        with pytest.raises(InvariantError):
            minimize_hamiltonian(fl, 0, np.ones((1, fl.x_grid.size)))

    def test_structured_agrees_with_grid_search(self):
        p = ProblemFunctions.structured(
            Poly2(const=1.0, x=0.2), Constant(0.3), tracking,
            Constant(0.6), Constant(0.1), Constant(0.4), (-1, 1), 0.3, 1.0)
        fl = self._fields(p, g=Graphon.constant(0.8))
        gen = np.random.default_rng(0)
        x = fl.x_grid
        q = gen.uniform(-3, 3, x.size)
        u = minimize_hamiltonian(fl, 2, q[None, :])[0]
        # brute-force oracle: argmin of the Hamiltonian over a fine control grid
        us = np.linspace(-1, 1, 2001)
        c, l, d = (t[0, 2][:, None] for t in (fl.drift_coef, fl.cost_const, fl.cost_quad))

        def hamiltonian(v):
            return q[:, None] * (c * v) + (l + d * v**2)

        H = hamiltonian(us)
        u_grid = us[np.argmin(H, axis=1)]
        assert np.abs(u - u_grid).max() <= 0.5 * (us[1] - us[0]) + 1e-12
        assert np.all(hamiltonian(u[:, None])[:, 0] <= H.min(axis=1) + 1e-12)


class TestSolveHJB:
    def test_pure_control_cost_gives_zero_value_and_zero_policy(self):
        # drift u, cost u^2: minimizer 0 at q=0, value stays 0
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), Constant(0.0),
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.2, 0.5)
        ens = dirac_ensemble(0.0, 2, 16, 0.5)
        values, policy = solve_hjb(p, Graphon.constant(0.0), 0.25, ens,
                                   np.linspace(-2, 2, 81))
        assert np.abs(values).max() < 1e-12
        assert np.abs(policy).max() < 1e-12

    @pytest.mark.parametrize("k", [0, 8, 16])
    def test_sweep_rejects_a_vanishing_quadratic_bracket(self, k):
        """One (vertex, node) cell of the quadratic cost table at 0, late or
        early in the sweep, fails the value sweep with InvariantError before
        any step divides by it."""
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), Constant(0.0),
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.2, 0.5)
        ens = dirac_ensemble(0.0, 2, 16, 0.5)
        x_grid = np.linspace(-2, 2, 81)
        fields = frozen_fields(p, Graphon.constant(0.0), [0.25, 0.75], ens, x_grid)
        fields.cost_quad[1, k, 40] = 0.0
        with pytest.raises(InvariantError, match="quadratic control-cost"):
            solve_hjb(p, Graphon.constant(0.0), [0.25, 0.75], ens, x_grid,
                      fields=fields)

    def test_stability_precondition(self):
        p = structured_lq_like(u_box=(-10, 10))
        ens = dirac_ensemble(0.0, 2, 8, 1.0)  # dt = 1/8 far too coarse
        with pytest.raises(ConfigError):
            solve_hjb(p, Graphon.constant(0.0), 0.25, ens, np.linspace(-3, 3, 61))

    @pytest.mark.slow
    def test_matches_scalar_riccati_solution(self):
        # V(t,x) = tanh(T-t) x^2 + sigma^2 log cosh(T-t); the box is wide
        # enough that the clamp never binds (|u*| <= 2|x| well inside 10).
        sigma, T = 0.3, 1.0
        p = structured_lq_like(u_box=(-10, 10), sigma=sigma, T=T)
        K, Nx = 8000, 3201
        x_grid = np.linspace(-6, 6, Nx)
        ens = dirac_ensemble(0.0, 1, K, T)
        (values,), (policy,) = solve_hjb(p, Graphon.constant(0.0), 0.5, ens, x_grid)
        mask = np.abs(x_grid) <= 2.0
        worst = 0.0
        for k in (0, K // 2):
            t = ens.times[k]
            exact = np.tanh(T - t) * x_grid**2 + sigma**2 * np.log(np.cosh(T - t))
            worst = max(worst, np.abs(values[k] - exact)[mask].max())
        assert worst < 2e-3
        # the wide box never saturates where mass lives
        saturated = np.mean(np.abs(policy[:, mask]) > 10 - 1e-9)
        assert saturated < 1e-3

    def test_value_bound(self):
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.3, 0.75)
        ens = dirac_ensemble(0.2, 2, 24, 0.75)
        x_grid = np.linspace(-2.5, 2.5, 101)
        from gmfg.control import frozen_fields as ff
        fl = ff(p, Graphon.constant(0.0), 0.25, ens, x_grid)
        values, _ = solve_hjb(p, Graphon.constant(0.0), 0.25, ens, x_grid, fields=fl)
        # cost = const + quad u^2 with quad >= 0: its sup over the control
        # set is attained at u = 0 or at the largest |u|
        umax = max(abs(p.u_min), abs(p.u_max))
        cost_bound = np.maximum(np.abs(fl.cost_const),
                                np.abs(fl.cost_const + fl.cost_quad * umax**2)).max()
        assert np.abs(values).max() <= p.T * cost_bound + 1e-9

    @pytest.mark.parametrize("sigma, K, n_x", [(0.3, 16, 81),     # nu ~ 1.1
                                               (3.0, 10, 201),    # nu ~ 1100
                                               (0.03, 37, 1201)])  # nu ~ 1.1
    def test_diffusion_solve_matches_banded_oracle(self, sigma, K, n_x):
        # no drift, so every step is one linear solve of the implicit
        # diffusion against the explicit x-dependent running cost
        from scipy.linalg import solve_banded

        T = 1.0
        p = ProblemFunctions.structured(Constant(0.0), Constant(0.0),
                                        Poly2(x=1.0, xx=1.0, xy=-0.5),
                                        Constant(1.0), Poly2(const=0.3, yy=1.0),
                                        Constant(0.0), (-1, 1), sigma, T)
        g = Graphon.uniform_attachment()
        ens = dirac_ensemble(0.4, 2, K, T)
        x_grid = np.linspace(-2.0, 2.0, n_x)
        fl = frozen_fields(p, g, 0.25, ens, x_grid)
        values, _ = solve_hjb(p, g, 0.25, ens, x_grid, fields=fl)
        dt, dx = T / K, x_grid[1] - x_grid[0]
        nu = sigma**2 * dt / (2.0 * dx * dx)
        ab = np.zeros((3, n_x))
        ab[0, 1:], ab[1], ab[2, :-1] = -nu, 1.0 + 2.0 * nu, -nu
        ab[0, 1] = ab[2, -2] = -2.0 * nu
        want = np.zeros((K + 1, n_x))
        for k in range(K - 1, -1, -1):
            want[k] = solve_banded((1, 1), ab, want[k + 1] + dt * fl.cost_const[0, k])
        assert np.abs(values[0] - want).max() <= 1e-13 * np.abs(want).max()

    def test_fine_grid_solve_allocates_no_dense_matrix(self):
        # one (3201, 3201) float array alone would take 82 MB
        import tracemalloc

        p = ProblemFunctions.structured(Constant(0.0), Constant(0.0), Poly2(xx=1.0),
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.3, 1.0)
        ens = dirac_ensemble(0.0, 1, 4, 1.0)
        tracemalloc.start()
        try:
            solve_hjb(p, Graphon.constant(0.0), 0.5, ens, np.linspace(-6, 6, 3201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_fine_grid_batch_equals_each_vertex_alone(self):
        # a zero graphon, so the fields of one vertex equal its batch rows
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.3, 0.5)
        K, M = 120, 3
        times = np.linspace(0.0, 0.5, K + 1)
        q = np.linspace(-1.5, 1.5, 33)
        atoms = np.stack([np.tile(c + s * q, (K + 1, 1))
                          for c, s in ((-0.5, 0.2), (0.1, 0.5), (0.8, 0.3))])
        ens = MeasureEnsemble(atoms, times)
        x_grid = np.linspace(-3.0, 3.0, 1201)
        g = Graphon.constant(0.0)
        alphas = (np.arange(M) + 0.5) / M
        values, policy = solve_hjb(p, g, alphas, ens, x_grid)
        assert not np.array_equal(values[0], values[1])
        for v, alpha in enumerate(alphas):
            value, pol = solve_hjb(p, g, alpha, ens, x_grid)
            assert np.array_equal(values[v], value[0])
            assert np.array_equal(policy[v], pol[0])

    def test_grid_refinement_first_order(self):
        sigma, T = 0.3, 1.0
        p = structured_lq_like(u_box=(-2, 2), sigma=sigma, T=T)
        vals = []
        for Nx, K in [(101, 100), (201, 200), (401, 400)]:
            x_grid = np.linspace(-4, 4, Nx)
            ens = dirac_ensemble(0.0, 1, K, T)
            values, _ = solve_hjb(p, Graphon.constant(0.0), 0.5, ens, x_grid)
            vals.append(np.interp(0.7, x_grid, values[0, 0]))
        c1, c2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert 0.3 <= c2 / c1 <= 0.7


class TestPolicy:
    def test_policy_lipschitz_constant_policy(self):
        times = np.linspace(0, 1, 4)
        x = np.linspace(-1, 1, 11)
        assert policy_lipschitz(np.zeros((times.size, x.size)), x) == 0.0

    def test_policy_lipschitz_clamp_table(self):
        times = np.linspace(0, 1, 3)
        x = np.linspace(-2, 2, 41)
        table = np.tile(np.clip(x, -1, 1), (times.size, 1))
        assert policy_lipschitz(table, x) == pytest.approx(1.0)

    def test_time_piecewise_constant_eval(self):
        times = np.array([0.0, 0.5, 1.0])
        x = np.linspace(-1, 1, 3)
        table = np.array([[0.1] * 3, [0.2] * 3, [0.3] * 3])
        pol = Policy(table, x, times, (-1, 1))
        assert pol(0.49, 0.0) == pytest.approx(0.1)
        assert pol(0.5, 0.0) == pytest.approx(0.2)
        assert pol(2.0, 0.0) == pytest.approx(0.3)

    def test_csv_exports(self, tmp_path):
        from gmfg.artifacts import index_columns
        from gmfg.cli import write_csv

        table = np.array([[0.0, 0.1, -1.0 / 3.0, 1.0],
                          [1e-300, -0.0, 0.5, 2.0 / 3.0],
                          [-1.0, 0.25, 1e-7, 0.0]])
        write_csv(tmp_path / "pol.csv", ["t_index", "x_index", "value"],
                  index_columns(table), {"scenario_hash": "abc"})
        lines = (tmp_path / "pol.csv").read_bytes().splitlines(keepends=True)
        assert lines[0] == b"# scenario_hash=abc\r\n"
        assert lines[1] == b"t_index,x_index,value\r\n"
        rows = lines[2:]
        # per-value loop reference for the vectorized row format
        assert rows == [f"{k},{j},{v:.17g}\r\n".encode()
                        for k, row in enumerate(table) for j, v in enumerate(row)]
        # the same table in the ensemble layout (table rows as vertices,
        # columns as one-atom time nodes, broadcast weights)
        ens = MeasureEnsemble(table[:, :, None], np.linspace(0, 1, 4))
        v, k, _, atom, weight = index_columns(ens.atoms, ens.weights)
        write_csv(tmp_path / "ens.csv", ["vertex_index", "time_index", "atom", "weight"],
                  [v, k, atom, weight])
        ens_rows = (tmp_path / "ens.csv").read_bytes().splitlines(keepends=True)[1:]
        assert [r.rsplit(b",", 1)[0] + b"\r\n" for r in ens_rows] == rows


class TestEulerMaruyama:
    def test_constant_drift_matches_closed_form(self):
        from gmfg.control import euler_maruyama_steps

        gen = np.random.default_rng(5)
        x0 = gen.normal(size=6)
        noise = gen.standard_normal((6, 9))
        dt, sigma, c = 0.05, 0.7, -1.3
        seen = []

        def drift(k, x):
            seen.append(k)
            return np.full_like(x, c)

        buf = np.empty((6, 10))
        buf[:, 0] = x0
        buf[:, 1:] = sigma * np.sqrt(dt) * noise
        paths = euler_maruyama_steps(buf, dt, drift)
        assert paths is buf
        assert seen == list(range(9))
        assert paths.shape == (6, 10)
        steps = np.arange(10)
        expected = (x0[:, None] + steps * c * dt
                    + sigma * np.sqrt(dt) * np.concatenate(
                        [np.zeros((6, 1)), np.cumsum(noise, axis=1)], axis=1))
        np.testing.assert_allclose(paths, expected, rtol=0, atol=1e-12)


class TestSolveFPK:
    """The forward Fokker-Planck step of the solver's law on the x-grid."""

    sigma, T, K = 0.4, 0.5, 40

    def setup(self, n=3, N_x=81, seed=3):
        gen = np.random.default_rng(seed)
        fns = structured_lq_like(sigma=self.sigma, T=self.T)
        x = np.linspace(-2.0, 2.0, N_x)
        times = np.linspace(0.0, self.T, self.K + 1)
        mass0 = gen.uniform(0.0, 1.0, (n, N_x))
        mass0 /= mass0.sum(axis=1, keepdims=True)
        return gen, fns, x, times, mass0

    def test_mass_kept_and_nonnegative(self):
        from gmfg import solve_fpk

        gen, fns, x, times, mass0 = self.setup()
        dx, dt = x[1] - x[0], times[1] - times[0]
        # drifts of both signs up to the stability bound, pushing at the ends
        drift = gen.uniform(-1.0, 1.0, (3, self.K + 1, x.size)) * dx / dt
        drift[:, :, :3], drift[:, :, -3:] = -dx / dt, dx / dt
        masses = solve_fpk(fns, x, times, mass0, drift)
        assert masses.shape == (3, self.K + 1, x.size)
        assert np.array_equal(masses[:, 0], mass0)
        assert masses.min() >= 0.0
        np.testing.assert_allclose(masses.sum(axis=2), 1.0, rtol=0, atol=1e-13)

    def test_diffusion_is_the_dense_adjoint_solve(self):
        """One pure-diffusion step is (I + nu L^T)^-1, L the value sweep's
        reflected second difference, to 1e-14."""
        from gmfg import solve_fpk

        _, fns, x, times, mass0 = self.setup(N_x=41)
        dt, dx = times[1] - times[0], x[1] - x[0]
        nu = self.sigma**2 * dt / (2.0 * dx * dx)
        L = 2.0 * np.eye(x.size) - np.eye(x.size, k=1) - np.eye(x.size, k=-1)
        L[0, 1] = L[-1, -2] = -2.0
        dense = np.linalg.inv(np.eye(x.size) + nu * L.T)
        masses = solve_fpk(fns, x, times, mass0)
        np.testing.assert_allclose(masses[:, 1], mass0 @ dense.T, rtol=0, atol=1e-14)

    def test_constant_drift_moves_the_mean(self):
        """Upwind transport moves the mean by b dt per step, and the
        diffusion keeps it while no mass reaches the end nodes."""
        from gmfg import node_masses, solve_fpk

        _, fns, _, times, _ = self.setup()
        x = np.linspace(-4.0, 4.0, 401)   # the ends far out in the tails
        mass0 = node_masses(normal_quantile_measure(-0.5, 0.1, 129), x)[None]
        b = 0.8
        masses = solve_fpk(fns, x, times, mass0, np.full((1, self.K + 1, x.size), b))
        np.testing.assert_allclose(masses[0] @ x, -0.5 + b * times, rtol=0, atol=1e-12)

    def test_stability_breach_raises(self):
        from gmfg import solve_fpk

        _, fns, x, times, mass0 = self.setup()
        dx, dt = x[1] - x[0], times[1] - times[0]
        drift = np.zeros((3, self.K + 1, x.size))
        drift[1, 7, 40] = -1.01 * dx / dt
        with pytest.raises(ConfigError, match="stability requires"):
            solve_fpk(fns, x, times, mass0, drift)


@pytest.fixture(scope="module")
def solved():
    # drift u, cost (x - z)^2 + u^2 against a frozen dirac ensemble
    p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                    Constant(1.0), Constant(0.0), Constant(0.0),
                                    (-1, 1), 0.3, 1.0)
    K = 160
    ens = dirac_ensemble(0.0, 2, K, 1.0)
    x_grid = np.linspace(-3, 3, 241)
    fl = frozen_fields(p, Graphon.constant(0.0), 0.25, ens, x_grid)
    (values,), (table,) = solve_hjb(p, Graphon.constant(0.0), 0.25, ens, x_grid,
                                    fields=fl)
    return p, fl, values, Policy(table, x_grid, ens.times, (p.u_min, p.u_max))


class TestRolloutConsistency:
    def test_rollout_matches_value(self, solved):
        p, fl, values, pol = solved
        x0 = 1.0
        mean, se = rollout_cost(p, fl, pol, x0, 10_000, seed=7)
        dx = pol.x_grid[1] - pol.x_grid[0]
        dt = pol.times[1] - pol.times[0]
        v0 = np.interp(x0, pol.x_grid, values[0])
        assert abs(mean - v0) <= 3 * se + 5 * max(dx, dt)

    def test_policy_dominates_fixed_comparators(self, solved):
        p, fl, _, pol = solved
        x0 = 1.0
        mean_opt, se_opt = rollout_cost(p, fl, pol, x0, 10_000, seed=7)
        gen = np.random.default_rng(3)
        comparators = [np.full_like(pol.values, -1.0), np.full_like(pol.values, 1.0),
                       np.zeros_like(pol.values)]
        for _ in range(2):
            anchor = gen.uniform(-1, 1, pol.x_grid.size)
            comparators.append(np.tile(np.clip(anchor, -1, 1), (pol.values.shape[0], 1)))
        for table in comparators:
            alt = Policy(table, pol.x_grid, pol.times, pol.bounds)
            mean_alt, se_alt = rollout_cost(p, fl, alt, x0, 10_000, seed=7)
            assert mean_opt <= mean_alt + 3 * (se_opt + se_alt)


class TestGridLookup:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), lo=st.floats(-50, 50), width=st.floats(1e-3, 100),
           n_rows=st.integers(1, 4), data=st.data())
    def test_matches_np_interp_bit_for_bit(self, n, lo, width, n_rows, data):
        from hypothesis.extra.numpy import arrays

        xp = np.linspace(lo, lo + width, n)
        fp = data.draw(arrays(float, (n_rows, n),
                              elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
        inside = np.asarray(data.draw(st.lists(st.floats(0, 1), max_size=20)), float)
        outside = np.asarray(data.draw(st.lists(st.floats(1e-9, 1e3), max_size=5)), float)
        x = np.concatenate([
            lo + width * inside,                       # inside the grid
            xp,                                        # on every node
            [xp[0], xp[-1], np.nextafter(xp[0], np.inf),
             np.nextafter(xp[-1], -np.inf)],           # exactly at and next to the ends
            xp[0] - outside, xp[-1] + outside,         # outside both ends
            [np.nextafter(xp[0], -np.inf), np.nextafter(xp[-1], np.inf)],
        ])
        rows = data.draw(arrays(np.intp, x.shape, elements=st.integers(0, n_rows - 1)))
        look = GridLookup(xp, x, rows)
        expected = np.array([np.interp(xi, xp, fp[r]) for xi, r in zip(x, rows)])
        assert np.array_equal(look(fp), expected)
        assert look.escaped == np.count_nonzero((x < xp[0]) | (x > xp[-1]))

    def test_row_batches_as_the_closed_loop_reads_them(self):
        """2-D points with (M, 1) broadcast rows, as closed_loop_steps looks
        them up: nodes, points next to nodes, points off both ends and a NaN
        each read what np.interp reads on their row."""
        xp = np.linspace(-2.0, 3.0, 11)
        gen = np.random.default_rng(4)
        M = 3
        fp = gen.normal(size=(M, xp.size))
        x = np.empty((M, 40))
        x[:, :20] = gen.uniform(-2.5, 3.5, size=(M, 20))
        x[:, 20:31] = xp
        x[:, 31:34] = np.nextafter(xp[[2, 5, 9]], -np.inf)
        x[:, 34] = np.nextafter(xp[-1], np.inf)
        x[:, 35:37] = -np.inf, np.inf
        x[:, 37:39] = xp[0] - 1.0, xp[-1] + 1.0
        x[1, 39] = np.nan
        x[[0, 2], 39] = xp[4]
        look = GridLookup(xp, x, np.arange(M).reshape(M, 1))
        out = look(fp)
        assert out.shape == x.shape
        for v in range(M):
            assert np.array_equal(out[v], np.interp(x[v], xp, fp[v]), equal_nan=True)
        assert np.isnan(out[1, 39])
        assert look.escaped == np.count_nonzero((x < xp[0]) | (x > xp[-1]))

    def test_infinite_points_on_a_flat_table(self):
        """Points at -inf and inf read the end values of a flat table, as
        np.interp does, with no invalid 0 * inf on the way."""
        xp = np.linspace(0.0, 1.0, 5)
        x = np.array([np.inf, 0.5, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = GridLookup(xp, x)(np.zeros(5))
        assert np.array_equal(out, np.interp(x, xp, np.zeros(5)))

    def test_scalar_point_and_one_row_table(self):
        xp = np.linspace(-1.0, 1.0, 5)
        fp = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        assert GridLookup(xp, 0.25)(fp) == np.interp(0.25, xp, fp)
        assert GridLookup(xp, 3.0)(fp) == 16.0

    def test_non_uniform_grid_rejected(self):
        from gmfg import GridError

        x = np.array([0.0, 0.1, 1.0])
        with pytest.raises(GridError):
            Policy(np.zeros((2, 3)), x, np.linspace(0, 1, 2), (-1, 1))
