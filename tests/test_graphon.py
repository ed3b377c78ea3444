import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfg import (DomainError, Graphon, GridError, InvariantError, SizeError,
                  VertexGrid, cell_average_step, cut_norm_grid_bound,
                  h11_deviation, sample_step_graphon, section_integral,
                  step_difference)


def brute_force_cut_norm(W):
    """Exhaustive enumeration over all nonempty cell subsets S, T."""
    A = np.asarray(W, dtype=float) / W.shape[0] ** 2
    M = A.shape[0]
    best = 0.0
    cells = range(M)
    for rs in range(1, M + 1):
        for S in itertools.combinations(cells, rs):
            for ts in range(1, M + 1):
                for T in itertools.combinations(cells, ts):
                    best = max(best, abs(A[np.ix_(S, T)].sum()))
    return best


class TestVertexGrid:
    def test_midpoints_and_weights(self):
        grid = VertexGrid(4)
        np.testing.assert_allclose(grid.midpoints, [0.125, 0.375, 0.625, 0.875])
        assert np.all(np.diff(grid.midpoints) > 0)

    def test_cell_index_boundary_goes_low(self):
        grid = VertexGrid(2)
        assert grid.cell_index(0.5) == 0
        assert grid.cell_index(0.0) == 0
        assert grid.cell_index(1.0) == 1

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            VertexGrid(0)

    def test_nearest_ties_go_low(self):
        # 0.5 lies exactly between the midpoints 7/16 and 9/16
        assert VertexGrid(8).nearest([1 / 6, 0.5, 5 / 6]).tolist() == [1, 3, 6]
        assert VertexGrid(8).nearest(0.5) == 3

    @pytest.mark.parametrize("g", [
        Graphon.uniform_attachment(),
        Graphon.from_table([[0.6, 0.45], [0.45, 0.3]]),
        Graphon.product([0.2, 0.9, 0.4]),
        Graphon.step([[0.5, 0.2], [0.2, 0.5]])])
    def test_section_weights_match_written_out_forms(self, g):
        """Bit for bit the batched, the single-coordinate and the
        vertex-by-vertex forms the solver, the perturbation terms and the
        LQ operator wrote out."""
        grid = VertexGrid(8)
        m = grid.midpoints
        alphas = np.array([0.0, 1 / 6, 0.3, 0.5, 1.0])
        assert np.array_equal(grid.section_weights(g, alphas),
                              g.evaluate(alphas[:, None], m[None, :]) / grid.M)
        for alpha in alphas:
            assert np.array_equal(grid.section_weights(g, [float(alpha)]).T,
                                  g.evaluate(float(alpha), m)[:, None] / grid.M)
        assert np.array_equal(grid.section_weights(g, m),
                              g.evaluate(m[:, None], m[None, :]) / 8)


class TestEvaluate:
    def test_zero_kernel(self):
        assert Graphon.constant(0.0).evaluate(0.3, 0.7) == 0.0

    def test_uniform_attachment_value(self):
        g = Graphon.uniform_attachment()
        assert g.evaluate(0.25, 0.5) == pytest.approx(1.0 - max(0.25, 0.5))

    def test_step_cell_lookup(self):
        g = Graphon.step([[1.0, 0.0], [0.0, 1.0]])
        assert g.evaluate(0.1, 0.9) == 0.0
        assert g.evaluate(0.1, 0.2) == 1.0

    def test_out_of_range_rejected(self):
        g = Graphon.constant(0.5)
        with pytest.raises(DomainError):
            g.evaluate(-0.1, 0.5)
        with pytest.raises(DomainError):
            g.evaluate(0.2, 1.5)

    def test_range_validation_on_construction(self):
        with pytest.raises(InvariantError):
            Graphon.constant(1.5)
        with pytest.raises(InvariantError):
            Graphon.step([[0.2, 0.9], [0.4, 0.2]])  # asymmetric

    @pytest.mark.parametrize("build", [
        lambda: Graphon.product([np.nan, 0.5]),
        lambda: Graphon.from_table([[0.5, np.nan], [np.nan, 0.5]]),
        lambda: Graphon.step([[np.nan, 0.2], [0.2, 0.5]])],
        ids=["product", "table", "step"])
    def test_non_finite_values_rejected(self, build):
        # a NaN passes both bounds of a [0,1] range check
        with pytest.raises(InvariantError, match="must be finite numbers"):
            build()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.sampled_from(["ua", "const", "prod", "step"]))
    def test_symmetry_property(self, a, b, kind):
        g = {
            "ua": Graphon.uniform_attachment(),
            "const": Graphon.constant(0.37),
            "prod": Graphon.product([0.1, 0.9, 0.4]),
            "step": Graphon.step([[0.2, 0.7, 0.1], [0.7, 0.5, 0.0], [0.1, 0.0, 1.0]]),
        }[kind]
        va, vb = g.evaluate(a, b), g.evaluate(b, a)
        assert va == pytest.approx(vb, abs=1e-14)
        assert 0.0 <= va <= 1.0

    def test_table_bilinear_symmetric(self):
        t = np.array([[0.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 0.6]])
        g = Graphon.from_table(t)
        pts = np.linspace(0, 1, 7)
        vals = g.evaluate(pts[:, None], pts[None, :])
        np.testing.assert_allclose(vals, vals.T, atol=1e-14)
        # node values reproduced exactly
        assert g.evaluate(0.0, 0.5) == pytest.approx(0.5)


class TestSectionIntegral:
    def test_zero_kernel(self):
        grid = VertexGrid(8)
        g = Graphon.constant(0.0)
        assert section_integral(g, 0.4, lambda b: np.sin(b), grid) == 0.0

    def test_uniform_attachment_analytic(self):
        # integral of (1 - max(alpha, beta)) dbeta = (1 - alpha^2) / 2; the
        # midpoint rule is exact here for even M because the kink sits on a
        # cell boundary and the integrand is piecewise linear.
        grid = VertexGrid(16)
        g = Graphon.uniform_attachment()
        val = section_integral(g, 0.5, lambda b: np.ones_like(b), grid)
        assert val == pytest.approx((1 - 0.5**2) / 2, abs=1e-14)

    def test_step_row_mean(self):
        grid = VertexGrid(2)
        g = Graphon.step([[0.2, 0.8], [0.8, 0.4]])
        val = section_integral(g, 0.1, lambda b: np.ones_like(b), grid)
        assert val == pytest.approx(0.5)


class TestSampleStepGraphon:
    def test_constant(self):
        s = sample_step_graphon(Graphon.constant(0.3), 5)
        np.testing.assert_allclose(s.matrix, 0.3)

    def test_uniform_attachment_m2(self):
        s = sample_step_graphon(Graphon.uniform_attachment(), 2)
        np.testing.assert_allclose(s.matrix, [[0.75, 0.25], [0.25, 0.25]])

    def test_idempotent_on_matching_resolution(self):
        base = Graphon.step([[0.2, 0.8], [0.8, 0.4]])
        s = sample_step_graphon(base, 2)
        np.testing.assert_array_equal(s.matrix, base.matrix)


class TestH11Deviation:
    def test_constant_sample_is_exact(self):
        g = Graphon.constant(0.42)
        gk = sample_step_graphon(g, 6)
        assert h11_deviation(gk, g) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_attachment_monotone_refinement(self):
        # Oracle at refinement 64; the deviation halves quadratically in M
        # for this kernel (only the diagonal kink cells contribute).
        g = Graphon.uniform_attachment()
        devs = [h11_deviation(sample_step_graphon(g, M), g, refinement=64)
                for M in (4, 8, 16)]
        assert devs[0] > devs[1] > devs[2]
        np.testing.assert_allclose(devs, [1 / (8 * M**2) for M in (4, 8, 16)], rtol=1e-3)

    def test_single_entry_perturbation(self):
        g = Graphon.constant(0.4)
        M, delta = 4, 0.05
        mat = sample_step_graphon(g, M).matrix.copy()
        mat[1, 2] += delta
        mat[2, 1] += delta
        gk = Graphon.step(mat)
        assert h11_deviation(gk, g) == pytest.approx(delta / M, abs=1e-14)

    def test_lipschitz_product_kernel_monotone(self):
        g = Graphon.product([0.1, 0.9, 0.3, 0.6])
        devs = [h11_deviation(sample_step_graphon(g, M), g, refinement=64)
                for M in (4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < devs[0]


class TestCutNormGridBound:
    def test_zero_kernel(self):
        assert cut_norm_grid_bound(np.zeros((4, 4))) == 0.0

    def test_constant_attained_at_full_sets(self):
        assert cut_norm_grid_bound(np.full((6, 6), 0.3)) == pytest.approx(0.3)

    def test_m2_checkerboard_against_enumeration(self):
        W = np.array([[0.5, -0.5], [-0.5, 0.5]])
        oracle = brute_force_cut_norm(W)
        assert oracle == pytest.approx(0.125)
        assert cut_norm_grid_bound(W) == pytest.approx(oracle)

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_exact_for_tiny_m(self, M):
        gen = np.random.default_rng(M)
        for _ in range(5):
            W = gen.uniform(-1, 1, (M, M))
            assert cut_norm_grid_bound(W) == pytest.approx(brute_force_cut_norm(W), abs=1e-12)

    def test_never_exceeds_l1(self):
        gen = np.random.default_rng(7)
        W = gen.uniform(-1, 1, (12, 12))
        assert cut_norm_grid_bound(W) <= np.abs(W).mean() + 1e-12

    def test_heuristic_above_exact_limit_is_lower_bound(self):
        gen = np.random.default_rng(3)
        W = gen.uniform(-1, 1, (24, 24))
        val = cut_norm_grid_bound(W)
        assert 0.0 < val <= np.abs(W).mean() + 1e-12
        # rank-one signed kernel: optimum is the positive block, found easily
        s = np.where(np.arange(24) < 12, 1.0, -1.0)
        W1 = 0.5 * np.outer(s, s)
        assert cut_norm_grid_bound(W1) == pytest.approx(0.125, abs=1e-12)

    def test_size_limit(self):
        with pytest.raises(SizeError):
            cut_norm_grid_bound(np.zeros((600, 600)))

    def test_deterministic_under_seed(self):
        gen = np.random.default_rng(11)
        W = gen.uniform(-1, 1, (20, 20))
        assert cut_norm_grid_bound(W, seed=5) == cut_norm_grid_bound(W, seed=5)


class TestStepDifference:
    def test_difference_and_mismatch(self):
        a = sample_step_graphon(Graphon.uniform_attachment(), 4)
        b = cell_average_step(Graphon.uniform_attachment(), 4)
        d = step_difference(a, b)
        assert d.shape == (4, 4)
        with pytest.raises(GridError):
            step_difference(a, sample_step_graphon(Graphon.constant(0.1), 8))
