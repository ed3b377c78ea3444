import numpy as np
import pytest
from scipy.linalg import expm

from gmfg import Graphon, InvariantError, VertexGrid, section_integral
from gmfg.lq import (LambdaOperator, LQParams, fundamental_matrices,
                     lq_consistency_vs_simulation, solve_lq_fixed_point,
                     solve_riccati)


def scalar_params(A=0.0, B=1.0, D0=0.0, D=0.0, Sigma=0.5, Q=1.0, R=1.0,
                  Q_T=0.0, gamma0=0.0, gamma=0.0, eta=0.0, x0=1.0, T=1.0,
                  graphon=None, M=4, K=200):
    g = graphon if graphon is not None else Graphon.constant(0.0)
    return LQParams([[A]], [[B]], [[D0]], [[D]], [[Sigma]], [[Q]], [[R]],
                    [[Q_T]], gamma0, gamma, [eta], [x0], T, g, M, K)


def benchmark_params(M=16, K=200):
    # uniform-attachment scalar tracking benchmark
    return scalar_params(A=0.0, B=1.0, D0=0.0, D=0.2, Sigma=0.5, Q=1.0, R=1.0,
                         Q_T=0.0, gamma0=0.0, gamma=0.5, eta=1.0, x0=1.0, T=1.0,
                         graphon=Graphon.uniform_attachment(), M=M, K=K)


class TestLQParams:
    def test_validation(self):
        with pytest.raises(InvariantError):
            scalar_params(R=0.0)
        with pytest.raises(InvariantError):
            scalar_params(Q=-1.0)
        with pytest.raises(InvariantError):
            scalar_params(T=0.0)

    def test_graphon_weights_row_sums(self):
        p = benchmark_params(M=8, K=4)
        c_g = p.graphon_weights().sum(axis=1).max()
        # analytic maximum of the section integral is 1/2 at the left edge
        grid = VertexGrid(8)
        edge = section_integral(Graphon.uniform_attachment(), 0.0,
                                np.ones(8), grid)
        assert edge == pytest.approx(0.5)
        assert c_g == pytest.approx(0.5, abs=1e-2)


class TestSolveRiccati:
    def test_zero_data_zero_solution(self):
        p = scalar_params(Q=0.0, Q_T=0.0)
        ric = solve_riccati(p)
        assert np.abs(ric.Pi).max() == 0.0

    def test_scalar_tanh_benchmark(self):
        p = scalar_params(A=0.0, B=1.0, Q=1.0, R=1.0, Q_T=0.0, T=1.0, K=200)
        ric = solve_riccati(p)
        exact = np.tanh(1.0 - p.times)
        assert np.abs(ric.Pi[:, 0, 0] - exact).max() < 1e-8
        ric.validate(p.Q_T)

    def test_no_control_matches_expm_quadrature_oracle(self):
        A = np.array([[-1.0, 0.3], [-0.2, -0.8]])
        C = np.array([[0.6, 0.1], [0.0, 0.4]])
        Q = C.T @ C
        Q_T = np.array([[0.3, 0.1], [0.1, 0.5]])
        T = 1.2
        p = LQParams(A, np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((2, 2)),
                     np.zeros((2, 1)), Q, [[1.0]], Q_T, 0.0, 0.0,
                     np.zeros(2), np.zeros(2), T, Graphon.constant(0.0), 2, 120)
        ric = solve_riccati(p)

        def oracle(t):
            s = np.linspace(t, T, 4001)
            vals = np.array([expm(A.T * (si - t)) @ Q @ expm(A * (si - t)) for si in s])
            from scipy.integrate import simpson
            integ = simpson(vals, x=s, axis=0)
            return integ + expm(A.T * (T - t)) @ Q_T @ expm(A * (T - t))

        for k in (0, 40, 90):
            np.testing.assert_allclose(ric.Pi[k], oracle(p.times[k]), atol=1e-7)

    def test_psd_and_symmetry_along_path(self):
        ric = solve_riccati(benchmark_params(M=4, K=100))
        ric.validate(np.zeros((1, 1)))


class TestFundamentalMatrices:
    def test_identity_at_equal_times(self):
        p = benchmark_params(M=2, K=50)
        fm = fundamental_matrices(p, solve_riccati(p))
        for s in (0, 17, 50):
            np.testing.assert_allclose(fm.Phi[s, s], np.eye(1), atol=1e-14)
            np.testing.assert_allclose(fm.Psi[s, s], np.eye(1), atol=1e-14)

    def test_zero_coefficients_give_identity(self):
        p = scalar_params(A=0.0, B=0.0, D0=0.0, Q=0.0, Q_T=0.0, K=30)
        fm = fundamental_matrices(p, solve_riccati(p))
        np.testing.assert_allclose(fm.Phi, np.broadcast_to(np.eye(1), fm.Phi.shape))
        np.testing.assert_allclose(fm.Psi, np.broadcast_to(np.eye(1), fm.Psi.shape))

    def test_adjoint_duality_when_d0_vanishes(self):
        A = np.array([[-0.4, 0.2], [0.1, -0.6]])
        p = LQParams(A, np.eye(2), np.zeros((2, 2)), 0.1 * np.eye(2),
                     0.2 * np.eye(2), np.eye(2), np.eye(2), 0.5 * np.eye(2),
                     0.3, 0.2, np.zeros(2), np.ones(2), 1.0,
                     Graphon.constant(0.5), 2, 200)
        fm = fundamental_matrices(p, solve_riccati(p))
        err = np.abs(fm.Psi - np.swapaxes(fm.Phi.transpose(1, 0, 2, 3), 2, 3)).max()
        assert err < 1e-8


class TestLambdaOperator:
    def _op(self, **kw):
        return LambdaOperator(benchmark_params(M=6, K=60, **kw))

    def test_zero_maps_to_zero(self):
        op = self._op()
        x = np.zeros((6, 61, 1))
        assert np.abs(op.apply(x)).max() == 0.0

    def test_homogeneity_exact(self):
        op = self._op()
        gen = np.random.default_rng(0)
        x = gen.normal(size=(6, 61, 1))
        np.testing.assert_array_equal(op.apply(2.0 * x), 2.0 * op.apply(x))

    def test_linearity(self):
        op = self._op()
        gen = np.random.default_rng(1)
        x1 = gen.normal(size=(6, 61, 1))
        x2 = gen.normal(size=(6, 61, 1))
        lhs = op.apply(0.7 * x1 + 1.3 * x2)
        rhs = 0.7 * op.apply(x1) + 1.3 * op.apply(x2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_decoupled_case_matches_nested_loop_oracle(self):
        # g = 0, D = D0 = 0, Q_T = 0: only the own-vertex kernel acts
        p = scalar_params(A=0.1, B=1.0, D0=0.0, D=0.0, Q=1.0, R=1.0, Q_T=0.0,
                          gamma0=0.4, gamma=0.0, eta=0.0, T=1.0, M=3, K=40)
        op = LambdaOperator(p)
        gen = np.random.default_rng(2)
        x = gen.normal(size=(3, 41, 1))
        got = op.apply(x)

        K1 = 41
        dt = p.T / 40
        BRB = float(p.BRB[0, 0])
        Phi = op.fm.Phi[:, :, 0, 0]
        Psi = op.fm.Psi[:, :, 0, 0]
        A1 = op.A1[:, 0, 0]
        expected = np.zeros_like(got)
        for m in range(3):
            for t in range(K1):
                accum_t = 0.0
                for r in range(t + 1):
                    wr = dt * (0.5 if r in (0, t) else 1.0) if t > 0 else 0.0
                    accum_r = 0.0
                    for tau in range(r, K1):
                        wt = dt * (0.5 if tau in (r, K1 - 1) else 1.0) if r < K1 - 1 else 0.0
                        accum_r += wt * Psi[r, tau] * A1[tau] * x[m, tau, 0]
                    accum_t += wr * Phi[t, r] * BRB * accum_r
                expected[m, t, 0] = accum_t
        assert np.abs(got - expected).max() < 1e-9

    def test_norm_bound_zero_when_b_and_d_vanish(self):
        p = scalar_params(B=0.0, D=0.0, Q=1.0, Q_T=1.0, gamma0=0.5, gamma=0.5,
                          K=40)
        assert LambdaOperator(p).norm_bound() == pytest.approx(0.0, abs=1e-15)

    def test_norm_bound_dominates_random_probes(self):
        op = self._op()
        bound = op.norm_bound()
        gen = np.random.default_rng(3)
        for _ in range(20):
            x = gen.normal(size=(6, 61, 1))
            ratio = np.abs(op.apply(x)).max() / np.abs(x).max()
            assert ratio <= bound + 1e-12


def matrix_params(M=3, K=30):
    # n = 2 with pairwise non-commuting A, B, D0, D, Q and R
    return LQParams([[-0.3, 0.8], [-0.2, 0.1]], [[1.0, 0.4], [-0.3, 0.7]],
                    [[0.1, -0.2], [0.05, 0.15]], [[0.2, 0.3], [-0.1, 0.25]],
                    0.3 * np.eye(2), [[1.0, 0.3], [0.3, 0.6]],
                    [[1.5, -0.4], [-0.4, 0.8]], [[0.5, 0.2], [0.2, 0.3]],
                    0.4, 0.6, [1.0, -0.5], [0.8, -0.3], 1.0,
                    Graphon.uniform_attachment(), M, K)


def reference_norm_bound(op):
    # per-r product tensor and np.linalg.norm over every row t
    p, fm = op.p, op.fm
    K1 = p.K + 1
    c_g = float(op.Gw.sum(axis=1).max())
    a1 = (np.linalg.norm(op.A1, axis=(1, 2))
          + c_g * np.linalg.norm(op.A2, axis=(1, 2)))
    gamma_mix = abs(p.gamma0) + c_g * abs(p.gamma)
    inner = np.zeros((K1, K1))
    single = np.zeros((K1, K1))
    for r in range(K1):
        PB = fm.Phi[:, r] @ p.BRB
        prod = np.einsum("tij,ujk->tuik", PB, fm.Psi[r, r:])
        nb = np.linalg.norm(prod, axis=(2, 3))
        inner[:, r] = nb @ (op.w_up[r, r:] * a1[r:])
        end = np.linalg.norm(PB @ (fm.Psi[r, -1] @ p.Q_T), axis=(1, 2))
        single[:, r] = end * gamma_mix + c_g * np.linalg.norm(
            fm.Phi[:, r] @ p.D, axis=(1, 2))
    return float(np.einsum("tr,tr->t", op.w_low, inner + single).max())


def reference_apply(op, x):
    # per-r backward and per-t forward quadrature loops
    p, fm = op.p, op.fm
    K1 = p.K + 1
    z = op.vertex_average(x)
    y = (np.einsum("kij,mkj->mki", op.A1, x)
         + np.einsum("kij,mkj->mki", op.A2, z))
    term = np.einsum("ij,mj->mi", p.Q_T, p.gamma0 * x[:, -1] + p.gamma * z[:, -1])
    inner = np.empty((x.shape[0], K1, p.n))
    for r in range(K1):
        inner[:, r] = np.einsum("u,uij,muj->mi", op.w_up[r, r:], fm.Psi[r, r:],
                                y[:, r:])
        inner[:, r] += np.einsum("ij,mj->mi", fm.Psi[r, -1], term)
    J = (np.einsum("ij,mrj->mri", p.BRB, inner)
         + np.einsum("ij,mrj->mri", p.D, z))
    out = np.empty_like(x)
    for t in range(K1):
        out[:, t] = np.einsum("r,rij,mrj->mi", op.w_low[t, : t + 1],
                              fm.Phi[t, : t + 1], J[:, : t + 1])
    return out


def reference_forcing(op):
    p, fm = op.p, op.fm
    K1 = p.K + 1
    inner = np.empty((K1, p.n))
    for r in range(K1):
        inner[r] = np.einsum("u,uij,j->i", op.w_up[r, r:], fm.Psi[r, r:],
                             p.Q @ p.eta)
        inner[r] += fm.Psi[r, -1] @ (p.Q_T @ p.eta)
    J = inner @ p.BRB.T
    out = np.empty((K1, p.n))
    for t in range(K1):
        out[t] = fm.Phi[t, 0] @ p.x0 + np.einsum(
            "r,rij,rj->i", op.w_low[t, : t + 1], fm.Phi[t, : t + 1], J[: t + 1])
    return out


class TestMatrixKernels:
    """The whole-array kernels against the per-node loops, for n = 2."""

    def test_data_do_not_commute(self):
        p = matrix_params()
        mats = [p.A, p.B, p.D0, p.D, p.Q, p.R]
        for i, a in enumerate(mats):
            for b in mats[i + 1:]:
                assert np.abs(a @ b - b @ a).max() > 1e-3

    def test_norm_bound_matches_reference(self):
        op = LambdaOperator(matrix_params())
        want = reference_norm_bound(op)
        assert want > 0.0
        assert op.norm_bound() == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_apply_and_forcing_match_reference(self):
        op = LambdaOperator(matrix_params())
        x = np.random.default_rng(5).normal(size=(3, 31, 2))
        want = reference_apply(op, x)
        assert np.abs(want).max() > 1e-2
        np.testing.assert_allclose(op.apply(x), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(op.forcing(), reference_forcing(op),
                                   rtol=0, atol=1e-13)


class TestSolveLQFixedPoint:
    def test_decoupled_forcing_only(self):
        p = scalar_params(A=-0.3, B=1.0, Q=1.0, R=2.0, gamma0=0.0, gamma=0.0,
                          eta=0.0, D0=0.0, D=0.0, x0=0.7, M=3, K=100)
        sol = solve_lq_fixed_point(p)
        op = LambdaOperator(p, sol.riccati, sol.fundamentals)
        forcing = op.forcing()
        for v in range(3):
            np.testing.assert_allclose(sol.xbar[v], forcing, atol=1e-12)
        # with no tracking target the offsets vanish
        assert np.abs(sol.s).max() < 1e-12

    def test_benchmark_contraction_and_residual(self):
        p = benchmark_params()
        sol = solve_lq_fixed_point(p, tol=1e-9)
        assert sol.c_lambda < 1.0
        assert sol.residual < 1e-8
        ratios = [b / a for a, b in zip(sol.changes, sol.changes[1:]) if a > 1e-13]
        assert max(ratios) <= sol.c_lambda + 0.05
        # terminal conditions hold exactly
        np.testing.assert_allclose(sol.riccati.Pi[-1], p.Q_T)
        term = -(p.gamma0 * sol.xbar[:, -1] + p.gamma * sol.zbar[:, -1]
                 + p.eta) @ p.Q_T.T
        np.testing.assert_allclose(sol.s[:, -1], term, atol=1e-10)
        assert np.allclose(sol.xbar[:, 0, :], p.x0, atol=1e-12)

    def test_two_initializations_agree(self):
        p = benchmark_params(M=8, K=100)
        sol1 = solve_lq_fixed_point(p, tol=1e-9)
        gen = np.random.default_rng(4)
        sol2 = solve_lq_fixed_point(p, tol=1e-9,
                                    x_init=gen.normal(size=sol1.xbar.shape))
        assert np.abs(sol1.xbar - sol2.xbar).max() < 1e-7


class TestConsistencySimulation:
    def test_deterministic_match_when_noise_free(self):
        p = benchmark_params(M=4, K=200)
        p.Sigma = np.zeros((1, 1))
        sol = solve_lq_fixed_point(p)
        report = lq_consistency_vs_simulation(p, sol, R_mc=200, seed=1)
        assert report["max_deviation"] < 1e-3
        assert report["passed"]

    @pytest.mark.slow
    def test_benchmark_within_clt_band(self):
        p = benchmark_params(M=16, K=200)
        sol = solve_lq_fixed_point(p)
        report = lq_consistency_vs_simulation(p, sol, R_mc=10_000, seed=2)
        assert report["passed"]
        assert report["max_deviation"] < 0.03

    def test_decoupled_means_identical_across_vertices(self):
        p = scalar_params(A=-0.2, B=1.0, Q=1.0, gamma0=0.0, gamma=0.0, eta=0.5,
                          D=0.0, D0=0.0, M=5, K=80)
        sol = solve_lq_fixed_point(p)
        spread = np.abs(sol.xbar - sol.xbar[:1]).max()
        assert spread < 1e-12
