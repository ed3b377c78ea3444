import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from gmfg import Graphon, InvariantError, NumericalError, VertexGrid, section_integral
from gmfg.lq import (LambdaOperator, LQParams, _rk4,
                     fundamental_matrices, lq_consistency_vs_simulation,
                     solve_lq_fixed_point, solve_riccati)


def scalar_params(A=0.0, B=1.0, D0=0.0, D=0.0, Sigma=0.5, Q=1.0, R=1.0,
                  Q_T=0.0, gamma0=0.0, gamma=0.0, eta=0.0, x0=1.0, T=1.0,
                  graphon=None, M=4, K=200):
    g = graphon if graphon is not None else Graphon.constant(0.0)
    return LQParams([[A]], [[B]], [[D0]], [[D]], [[Sigma]], [[Q]], [[R]],
                    [[Q_T]], gamma0, gamma, [eta], [x0], T, g, M, K)


def pair_tables(fm):
    # the dense Phi(t, s) and Psi(t, s) over all node pairs, from the factors
    return (np.einsum("tij,sjk->tsik", fm.U, fm.U_inv),
            np.einsum("tij,sjk->tsik", fm.W, fm.W_inv))


def trap_weight_rows(K1, dt):
    # row r of the upper table: trapezoid weights for nodes r..K; row t of
    # the lower one: weights for nodes 0..t (a zero row when the span is empty)
    upper = np.zeros((K1, K1))
    lower = np.zeros((K1, K1))
    for r in range(K1):
        if K1 - r > 1:
            upper[r, r:] = dt
            upper[r, r] = upper[r, -1] = 0.5 * dt
        if r > 0:
            lower[r, : r + 1] = dt
            lower[r, 0] = lower[r, r] = 0.5 * dt
    return lower, upper


def assert_valid_riccati(ric, Q_T):
    # terminal value Q_T, and a symmetric, positive semidefinite path
    Pi = ric.Pi
    assert np.allclose(Pi[-1], Q_T)
    assert np.allclose(Pi, np.swapaxes(Pi, 1, 2), atol=1e-10)
    assert np.linalg.eigvalsh(Pi).min() >= -1e-10


def stiff_two_state_params(lam, K=800):
    # A = R diag(lam, 0.5) R' with R a rotation by 0.4: one stiff stable mode
    c, s = np.cos(0.4), np.sin(0.4)
    rot = np.array([[c, -s], [s, c]])
    return LQParams(rot @ np.diag([lam, 0.5]) @ rot.T, [[1.0], [0.5]],
                    np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)),
                    [[1.0, 0.2], [0.2, 0.8]], [[1.0]], [[0.3, 0.0], [0.0, 0.1]],
                    0.0, 0.0, np.zeros(2), np.zeros(2), 2.0,
                    Graphon.constant(0.0), 2, K)


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
        weights = p.vertex_grid.section_weights(p.graphon, p.vertex_grid.midpoints)
        c_g = weights.sum(axis=1).max()
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
        assert_valid_riccati(ric, p.Q_T)

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
        assert_valid_riccati(ric, np.zeros((1, 1)))

    @pytest.mark.parametrize("lam, bound", [(-20.0, 1e-9), (-100.0, 1e-6)])
    def test_stiff_path_matches_exact_step_oracle(self, lam, bound):
        """Against the exact half-step: the Moebius step of expm(-H h) on
        [I; Pi], with H the Hamiltonian matrix. A stiff mode must not cost
        the path its fourth-order accuracy."""
        p = stiff_two_state_params(lam)
        n, h = p.n, p.T / (2 * p.K)
        step = expm(-h * np.block([[p.A, -p.BRB], [-p.Q, -p.A.T]]))
        exact = np.empty((2 * p.K + 1, n, n))
        exact[-1] = p.Q_T
        for j in range(2 * p.K - 1, -1, -1):
            Z = step @ np.vstack([np.eye(n), exact[j + 1]])
            exact[j] = np.linalg.solve(Z[:n].T, Z[n:].T).T
        assert np.abs(solve_riccati(p).half_steps - exact).max() <= bound

    @pytest.mark.parametrize("A", [10.0, 300.0])
    def test_escape_names_the_first_node_past_the_blowup_level(self, A):
        """With no control, Pi(t) = (exp(2 A (T - t)) - 1) / (2 A) passes
        1e8 backward from T; at A = 300 the path then leaves the float
        range, which must raise without a RuntimeWarning."""
        p = scalar_params(A=A, B=0.0, Q=1.0, T=2.0, K=200)
        cross = p.T - np.log1p(2 * A * 1e8) / (2 * A)
        with pytest.raises(NumericalError, match="Riccati finite escape near t=") as err:
            solve_riccati(p)
        t = float(str(err.value).rsplit("=", 1)[1])
        assert abs(t - cross) <= p.T / p.K

    def test_singular_x_raises_the_escape_error_at_the_pole(self):
        """With A = Q = 0 and B = R = 1 the step map is exact and
        Pi = Pi_T / (1 + Pi_T (T - t)); a terminal value of -32, outside
        the valid data, puts an exactly singular X four half-steps before
        T, which must be named like any other escape."""
        p = scalar_params(A=0.0, Q=0.0, T=1.0, K=64)
        p.Q_T = np.array([[-32.0]])
        with pytest.raises(NumericalError, match="Riccati finite escape near t=0.9688"):
            solve_riccati(p)


class TestFundamentalMatrices:
    def test_identity_at_equal_times(self):
        p = benchmark_params(M=2, K=50)
        Phi, Psi = pair_tables(fundamental_matrices(p, solve_riccati(p)))
        for s in (0, 17, 50):
            np.testing.assert_allclose(Phi[s, s], np.eye(1), atol=1e-14)
            np.testing.assert_allclose(Psi[s, s], np.eye(1), atol=1e-14)

    def test_zero_coefficients_give_identity(self):
        p = scalar_params(A=0.0, B=0.0, D0=0.0, Q=0.0, Q_T=0.0, K=30)
        Phi, Psi = pair_tables(fundamental_matrices(p, solve_riccati(p)))
        np.testing.assert_allclose(Phi, np.broadcast_to(np.eye(1), Phi.shape))
        np.testing.assert_allclose(Psi, np.broadcast_to(np.eye(1), Psi.shape))

    def test_adjoint_duality_when_d0_vanishes(self):
        A = np.array([[-0.4, 0.2], [0.1, -0.6]])
        p = LQParams(A, np.eye(2), np.zeros((2, 2)), 0.1 * np.eye(2),
                     0.2 * np.eye(2), np.eye(2), np.eye(2), 0.5 * np.eye(2),
                     0.3, 0.2, np.zeros(2), np.ones(2), 1.0,
                     Graphon.constant(0.5), 2, 200)
        Phi, Psi = pair_tables(fundamental_matrices(p, solve_riccati(p)))
        err = np.abs(Psi - np.swapaxes(Phi.transpose(1, 0, 2, 3), 2, 3)).max()
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
        Phi, Psi = (table[:, :, 0, 0] for table in pair_tables(op.fm))
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

    def test_memory_is_linear_in_time_nodes(self):
        """Build, norm bound and one apply at K = 1600 hold no table over
        node pairs: one such (K+1)^2 table of floats alone takes 20 MB."""
        p = benchmark_params(M=4, K=1600)
        tracemalloc.start()
        try:
            op = LambdaOperator(p)
            op.norm_bound()
            op.apply(np.ones((4, 1601, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

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


def one_input_params(B=((1.0,), (0.5,)), R=((1.3,),), M=3, K=30):
    # n = 2 driven through a single control input
    return LQParams([[0.1, 0.3], [-0.2, 0.0]], B, [[0.05, 0.0], [0.0, 0.02]],
                    [[0.2, 0.1], [0.0, 0.2]], [[0.5, 0.0], [0.1, 0.3]],
                    [[1.0, 0.2], [0.2, 0.8]], R, [[0.3, 0.0], [0.0, 0.1]],
                    0.4, 0.6, [0.5, -0.2], [1.0, 0.3], 1.0,
                    Graphon.uniform_attachment(), M, K)


def reference_norm_bound(op):
    # per-r product tensor and np.linalg.norm over every row t
    p = op.p
    K1 = p.K + 1
    Phi, Psi = pair_tables(op.fm)
    w_low, w_up = trap_weight_rows(K1, p.T / p.K)
    c_g = float(op.Gw.sum(axis=1).max())
    a1 = (np.linalg.norm(op.A1, axis=(1, 2))
          + c_g * np.linalg.norm(op.A2, axis=(1, 2)))
    gamma_mix = abs(p.gamma0) + c_g * abs(p.gamma)
    inner = np.zeros((K1, K1))
    single = np.zeros((K1, K1))
    for r in range(K1):
        PB = Phi[:, r] @ p.BRB
        prod = np.einsum("tij,ujk->tuik", PB, Psi[r, r:])
        nb = np.linalg.norm(prod, axis=(2, 3))
        inner[:, r] = nb @ (w_up[r, r:] * a1[r:])
        end = np.linalg.norm(PB @ (Psi[r, -1] @ p.Q_T), axis=(1, 2))
        single[:, r] = end * gamma_mix + c_g * np.linalg.norm(
            Phi[:, r] @ p.D, axis=(1, 2))
    return float(np.einsum("tr,tr->t", w_low, inner + single).max())


def reference_apply(op, x, Phi, Psi):
    # per-r backward and per-t forward quadrature loops over dense tables
    p = op.p
    K1 = p.K + 1
    w_low, w_up = trap_weight_rows(K1, p.T / p.K)
    z = op.vertex_average(x)
    y = (np.einsum("kij,mkj->mki", op.A1, x)
         + np.einsum("kij,mkj->mki", op.A2, z))
    term = np.einsum("ij,mj->mi", p.Q_T, p.gamma0 * x[:, -1] + p.gamma * z[:, -1])
    inner = np.empty((x.shape[0], K1, p.n))
    for r in range(K1):
        inner[:, r] = np.einsum("u,uij,muj->mi", w_up[r, r:], Psi[r, r:],
                                y[:, r:])
        inner[:, r] += np.einsum("ij,mj->mi", Psi[r, -1], term)
    J = (np.einsum("ij,mrj->mri", p.BRB, inner)
         + np.einsum("ij,mrj->mri", p.D, z))
    out = np.empty_like(x)
    for t in range(K1):
        out[:, t] = np.einsum("r,rij,mrj->mi", w_low[t, : t + 1],
                              Phi[t, : t + 1], J[:, : t + 1])
    return out


def reference_forcing(op):
    p = op.p
    K1 = p.K + 1
    Phi, Psi = pair_tables(op.fm)
    w_low, w_up = trap_weight_rows(K1, p.T / p.K)
    inner = np.empty((K1, p.n))
    for r in range(K1):
        inner[r] = np.einsum("u,uij,j->i", w_up[r, r:], Psi[r, r:],
                             p.Q @ p.eta)
        inner[r] += Psi[r, -1] @ (p.Q_T @ p.eta)
    J = inner @ p.BRB.T
    out = np.empty((K1, p.n))
    for t in range(K1):
        out[t] = Phi[t, 0] @ p.x0 + np.einsum(
            "r,rij,rj->i", w_low[t, : t + 1], Phi[t, : t + 1], J[: t + 1])
    return out


def transition_tables(p, ric):
    # Phi(t, r), t >= r, as products of the one-step RK4 maps of the drift,
    # and Psi(r, tau), tau >= r, as products of the inverses of the adjoint's
    # one-step maps: no inverse of an ill-conditioned U(t) is taken
    dt = p.T / p.K
    closed = p.A - p.BRB @ ric.half_steps
    tables = []
    for coef, invert in ((closed + p.D0, False), (-np.swapaxes(closed, 1, 2), True)):
        steps = [_rk4(lambda j, u: coef[j] @ u, np.eye(p.n), dt, 2 * k)
                 for k in range(p.K)]
        table = np.zeros((p.K + 1, p.K + 1, p.n, p.n))
        for a in range(p.K + 1):
            table[a, a] = np.eye(p.n)
            if invert:
                for r in range(a - 1, -1, -1):
                    table[r, a] = np.linalg.inv(steps[r]) @ table[r + 1, a]
            else:
                for t in range(a + 1, p.K + 1):
                    table[t, a] = steps[t - 1] @ table[t - 1, a]
        tables.append(table)
    return tables


def reference_fundamental(coeff_at, n, K, dt, chain=False):
    # the four RK4 stages written out, one coefficient call per stage node,
    # on U[k] itself, or (chain) on the identity, which gives the one-step
    # map G_k of U[k + 1] = G_k U[k]
    U = np.empty((K + 1, n, n))
    U[0] = np.eye(n)
    for k in range(K):
        M0, Mh, M1 = coeff_at(2 * k), coeff_at(2 * k + 1), coeff_at(2 * k + 2)
        u = np.eye(n) if chain else U[k]
        k1 = M0 @ u
        k2 = Mh @ (u + 0.5 * dt * k1)
        k3 = Mh @ (u + 0.5 * dt * k2)
        k4 = M1 @ (u + dt * k3)
        step = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        U[k + 1] = step @ U[k] if chain else step
    return U


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

    def test_one_input_norm_bound_matches_reference(self):
        """With one control input the bound factors through BRB = l l'."""
        op = LambdaOperator(one_input_params())
        assert op.p.n_u == 1
        want = reference_norm_bound(op)
        assert want > 0.0
        assert op.norm_bound() == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_one_input_bound_equals_gram_bound(self):
        """A zero second input column leaves BRB as it is but runs the Gram
        form: both evaluations give one bound."""
        p = one_input_params()
        b, r = p.B[:, 0], float(p.R[0, 0])
        q = one_input_params(B=np.column_stack([b, np.zeros(2)]), R=np.diag([r, 1.0]))
        assert q.n_u == 2
        np.testing.assert_array_equal(q.BRB, p.BRB)
        want = LambdaOperator(q).norm_bound()
        assert LambdaOperator(p).norm_bound() == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_apply_and_forcing_match_reference(self):
        op = LambdaOperator(matrix_params())
        x = np.random.default_rng(5).normal(size=(3, 31, 2))
        want = reference_apply(op, x, *pair_tables(op.fm))
        assert np.abs(want).max() > 1e-2
        np.testing.assert_allclose(op.apply(x), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(op.forcing(), reference_forcing(op),
                                   rtol=0, atol=1e-13)

    def test_stiff_apply_matches_transition_products(self):
        """A drift with rates -8 and 0.5 over T = 2 makes U(T) ill-conditioned;
        the factored quadrature stays within eps * cond U(T) of the
        transition-product tables."""
        c, s = np.cos(0.4), np.sin(0.4)
        rot = np.array([[c, -s], [s, c]])
        q = one_input_params(K=60)
        p = LQParams(rot @ np.diag([-8.0, 0.5]) @ rot.T, q.B, q.D0, q.D, q.Sigma,
                     q.Q, q.R, q.Q_T, q.gamma0, q.gamma, q.eta, q.x0, 2.0,
                     q.graphon, q.M, q.K)
        op = LambdaOperator(p)
        cond = np.linalg.cond(op.fm.U[-1])
        assert cond > 1e7
        x = np.random.default_rng(7).normal(size=(3, 61, 2))
        want = reference_apply(op, x, *transition_tables(p, op.ric))
        scale = np.abs(want).max()
        assert scale > 1e-2
        assert np.abs(op.apply(x) - want).max() <= 2 * np.finfo(float).eps * cond * scale

    def test_fundamental_matrices_match_stage_loops(self):
        """The factors are the bits of the written-out one-step maps
        chained node by node, and within K eps max|U| of the stages
        written out on U[k] itself."""
        p = matrix_params()
        ric = solve_riccati(p)
        dt = p.T / p.K
        fm = fundamental_matrices(p, ric)
        for got, coeff_at in (
                (fm.U, lambda j: p.A - p.BRB @ ric.half_steps[j] + p.D0),
                (fm.W, lambda j: -(p.A - p.BRB @ ric.half_steps[j]).T)):
            assert np.array_equal(got, reference_fundamental(coeff_at, p.n, p.K, dt,
                                                             chain=True))
            want = reference_fundamental(coeff_at, p.n, p.K, dt)
            bound = p.K * np.finfo(float).eps * np.abs(want).max()
            assert np.abs(got - want).max() <= bound
        assert np.array_equal(fm.U_inv, np.linalg.inv(fm.U))
        assert np.array_equal(fm.W_inv, np.linalg.inv(fm.W))


class TestSolveLQFixedPoint:
    def test_decoupled_forcing_only(self):
        p = scalar_params(A=-0.3, B=1.0, Q=1.0, R=2.0, gamma0=0.0, gamma=0.0,
                          eta=0.0, D0=0.0, D=0.0, x0=0.7, M=3, K=100)
        sol = solve_lq_fixed_point(p)
        op = LambdaOperator(p)
        # a fresh build reproduces the solution's own Riccati path and factors
        np.testing.assert_array_equal(op.ric.Pi, sol.riccati.Pi)
        for name in ("U", "U_inv", "W", "W_inv"):
            np.testing.assert_array_equal(getattr(op.fm, name),
                                          getattr(sol.fundamentals, name))
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

    @pytest.mark.parametrize("make", [benchmark_params, one_input_params])
    def test_feedback_reproduces_the_surface(self, make):
        """The reported offsets, fed back through the operator's own forward
        quadrature, give back the solved surface: xbar = U x0 plus the
        integral of Phi(t, r) (z D' - s BRB') over r <= t. On the shipped
        grid, and on two states with D0, Q_T and gamma0 all nonzero."""
        p = make() if make is benchmark_params else make(M=4, K=100)
        sol = solve_lq_fixed_point(p, tol=1e-13)
        op = LambdaOperator(p)
        again = op.fm.U @ p.x0 + op._forward(sol.zbar @ p.D.T - sol.s @ p.BRB.T)
        assert np.abs(again - sol.xbar).max() <= 1e-12 * np.abs(sol.xbar).max()

    @pytest.mark.parametrize("make", [benchmark_params, one_input_params])
    def test_offsets_converge_at_second_order(self, make):
        """s at K and 2K differ at the common nodes four times as much as
        s at 2K and 4K do: the trapezoid rule's second order."""
        s = [solve_lq_fixed_point(make(M=4, K=K), tol=1e-13).s for K in (50, 100, 200)]
        gaps = [np.abs(coarse - fine[:, ::2]).max() for coarse, fine in zip(s, s[1:])]
        assert gaps[1] > 0.0
        assert 3.8 <= gaps[0] / gaps[1] <= 4.2

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
