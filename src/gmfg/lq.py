"""Closed-form linear-quadratic pipeline on a graphon.

Every agent solves a tracking LQ regulator whose reference mixes its own
vertex mean, the graphon-weighted mean of all vertices, and a constant
offset. The solve reduces to one Riccati path shared by all vertices, the
fundamental matrices of the closed-loop drift and its adjoint, and a linear
integral operator acting on the vertex-mean surface; when that operator's
norm bound is below one the mean-field surface is the limit of a Picard
iteration and the per-vertex feedback is affine.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConvergenceError, InvariantError, NumericalError
from .graphon import VertexGrid

_BLOWUP = 1e8


def _sym(m):
    return 0.5 * (m + m.T)


def _as_matrix(value, shape, name):
    m = np.atleast_2d(np.asarray(value, dtype=float))
    if m.shape != shape:
        raise InvariantError(f"{name} must have shape {shape}, got {m.shape}")
    return m


class LQParams:
    """Data of the linear-quadratic graphon game.

    Dynamics  dx = (A x + D0 zbar_own + D z_graphon + B u) dt + Sigma dw and
    quadratic tracking cost with running weight Q, control weight R,
    terminal weight Q_T; the tracked signal is gamma0 * own-vertex mean +
    gamma * graphon-weighted mean + eta.
    """

    def __init__(self, A, B, D0, D, Sigma, Q, R, Q_T, gamma0, gamma, eta, x0,
                 T, graphon, M, K):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n = A.shape[0]
        self.A = _as_matrix(A, (n, n), "A")
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[0] != n:
            raise InvariantError("B must have n rows")
        self.B = B
        self.n, self.n_u = B.shape
        self.D0 = _as_matrix(D0, (n, n), "D0")
        self.D = _as_matrix(D, (n, n), "D")
        Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
        if Sigma.shape[0] != n:
            raise InvariantError("Sigma must have n rows")
        self.Sigma = Sigma
        self.n_w = Sigma.shape[1]
        self.Q = _as_matrix(Q, (n, n), "Q")
        self.R = _as_matrix(R, (self.n_u, self.n_u), "R")
        self.Q_T = _as_matrix(Q_T, (n, n), "Q_T")
        for name, mat in (("Q", self.Q), ("Q_T", self.Q_T)):
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise InvariantError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(_sym(mat)).min() < -1e-12:
                raise InvariantError(f"{name} must be positive semidefinite")
        if not np.allclose(self.R, self.R.T, atol=1e-12):
            raise InvariantError("R must be symmetric")
        try:
            np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError:
            raise InvariantError("R must be positive definite") from None
        self.gamma0 = float(gamma0)
        self.gamma = float(gamma)
        self.eta = np.asarray(eta, dtype=float).reshape(n)
        self.x0 = np.asarray(x0, dtype=float).reshape(n)
        if not T > 0:
            raise InvariantError("horizon T must be positive")
        self.T = float(T)
        self.graphon = graphon
        self.M = int(M)
        self.K = int(K)
        if self.M < 1 or self.K < 1:
            raise InvariantError("M and K must be at least 1")
        self.vertex_grid = VertexGrid(self.M)
        self.times = np.linspace(0.0, self.T, self.K + 1)
        self.Rinv = np.linalg.inv(self.R)
        self.BRB = self.B @ self.Rinv @ self.B.T

    def graphon_weights(self):
        """Row-stochastic-up-to-mass vertex quadrature of the kernel."""
        m = self.vertex_grid.midpoints
        return self.graphon.evaluate(m[:, None], m[None, :]) / self.M


@dataclass
class RiccatiPath:
    """Backward Riccati solution on the shared time grid."""

    times: np.ndarray
    Pi: np.ndarray        # (K+1, n, n), symmetric
    Pi_half: np.ndarray   # (K, n, n), midpoints for staged integrators

    def validate(self, Q_T):
        if not np.allclose(self.Pi[-1], Q_T):
            raise InvariantError("terminal Riccati value must equal Q_T")
        for k in range(self.Pi.shape[0]):
            if not np.allclose(self.Pi[k], self.Pi[k].T, atol=1e-10):
                raise InvariantError("Riccati path lost symmetry")
            if np.linalg.eigvalsh(self.Pi[k]).min() < -1e-10:
                raise InvariantError("Riccati path lost positive semidefiniteness")


def solve_riccati(p):
    """Classical RK4 backward solve of the matrix Riccati equation.

    Integrates on a half-step grid (the right-hand side is autonomous, so
    the stages need no interpolation) and symmetrizes at every node.
    Finite-escape blow-up raises instead of returning garbage.
    """
    n, K = p.n, p.K
    h = p.T / (2 * K)

    def rhs(Pi):
        return -(p.A.T @ Pi + Pi @ p.A - Pi @ p.BRB @ Pi + p.Q)

    fine = np.empty((2 * K + 1, n, n))
    fine[-1] = _sym(p.Q_T)
    for j in range(2 * K - 1, -1, -1):
        Pi = fine[j + 1]
        k1 = rhs(Pi)
        k2 = rhs(Pi - 0.5 * h * k1)
        k3 = rhs(Pi - 0.5 * h * k2)
        k4 = rhs(Pi - h * k3)
        step = Pi - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        fine[j] = _sym(step)
        if np.abs(fine[j]).max() > _BLOWUP:
            raise NumericalError(f"Riccati finite escape near t={j * h:.4g}")
    return RiccatiPath(p.times, fine[::2], fine[1::2])


@dataclass
class FundamentalMatrices:
    """Dense tables Phi(t, s), Psi(t, s) on all grid node pairs."""

    Phi: np.ndarray  # (K+1, K+1, n, n), Phi[t, s]
    Psi: np.ndarray


def _propagate_fundamental(coeff_at, n, K, dt):
    U = np.empty((K + 1, n, n))
    U[0] = np.eye(n)
    for k in range(K):
        M0 = coeff_at(2 * k)
        Mh = coeff_at(2 * k + 1)
        M1 = coeff_at(2 * k + 2)
        u = U[k]
        k1 = M0 @ u
        k2 = Mh @ (u + 0.5 * dt * k1)
        k3 = Mh @ (u + 0.5 * dt * k2)
        k4 = M1 @ (u + dt * k3)
        U[k + 1] = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.abs(U[k + 1]).max() > _BLOWUP:
            raise NumericalError("fundamental matrix overflow")
    return U


def fundamental_matrices(p, ric):
    """Fundamental solutions of the closed-loop drift and its adjoint.

    Phi solves xdot = (A - B R^-1 B' Pi_t + D0) x and Psi solves
    ydot = -(A - B R^-1 B' Pi_t)' y; both tables satisfy Phi(s, s) = I.
    When D0 = 0, Psi(t, s) equals Phi(s, t) transposed.
    """
    n, K = p.n, p.K
    dt = p.T / K
    fine = np.empty((2 * K + 1, n, n))
    fine[::2] = ric.Pi
    fine[1::2] = ric.Pi_half

    def m_phi(j):
        return p.A - p.BRB @ fine[j] + p.D0

    def m_psi(j):
        return -(p.A - p.BRB @ fine[j]).T

    U = _propagate_fundamental(m_phi, n, K, dt)
    W = _propagate_fundamental(m_psi, n, K, dt)
    Uinv = np.linalg.inv(U)
    Winv = np.linalg.inv(W)
    Phi = np.einsum("tij,sjk->tsik", U, Uinv)
    Psi = np.einsum("tij,sjk->tsik", W, Winv)
    return FundamentalMatrices(Phi, Psi)


def _trap_weight_rows(K1, dt):
    """Row r holds trapezoid weights for nodes r..K; row t of the lower
    variant holds weights for nodes 0..t (zero row when the span is empty)."""
    upper = np.zeros((K1, K1))
    lower = np.zeros((K1, K1))
    for r in range(K1):
        m = K1 - r
        if m > 1:
            upper[r, r:] = dt
            upper[r, r] = upper[r, -1] = 0.5 * dt
        if r > 0:
            lower[r, : r + 1] = dt
            lower[r, 0] = lower[r, r] = 0.5 * dt
    return lower, upper


class LambdaOperator:
    """The linear map on vertex-mean surfaces whose fixed point solves the game.

    Applies, for each vertex and time, the double time integral of the
    closed-loop kernels against the surface and its graphon-weighted vertex
    average, plus the terminal-cost boundary term. Trapezoid rule in both
    time variables, midpoint rule in the vertex variable; the norm bound is
    evaluated with exactly the same quadrature so the contraction check is
    self-consistent.

    Both time integrals are prebuilt as trapezoid-weighted kernels of shape
    (K+1)n x (K+1)n: ``w_up * Psi`` for the backward integral over
    tau >= r and ``w_low * Phi`` for the forward one over r <= t, so
    ``apply`` and ``forcing`` are a few matmuls over all vertices and times.
    The norm bound needs the Frobenius norms of Phi(t,r) BRB Psi(r,tau);
    it takes them in Gram form, |A B|_F^2 = <A'A, B B'>, as one matmul of
    (K+1-r) flattened Gram matrices against (K+1-r) others per r, over only
    the rows t >= r that the outer quadrature reads.
    """

    def __init__(self, p, ric=None, fm=None):
        self.p = p
        self.ric = ric if ric is not None else solve_riccati(p)
        self.fm = fm if fm is not None else fundamental_matrices(p, self.ric)
        dt = p.T / p.K
        self.w_low, self.w_up = _trap_weight_rows(p.K + 1, dt)
        self.Gw = p.graphon_weights()
        # kernel coefficient matrices per time node
        self.A1 = p.gamma0 * p.Q[None] - np.einsum("kij,jl->kil", self.ric.Pi, p.D0)
        self.A2 = p.gamma * p.Q[None] - np.einsum("kij,jl->kil", self.ric.Pi, p.D)
        self.kernel_up = _weighted_kernel(self.w_up, self.fm.Psi)
        self.kernel_low = _weighted_kernel(self.w_low, self.fm.Phi)

    def vertex_average(self, surface):
        return np.einsum("ij,jkn->ikn", self.Gw, surface)

    def _backward(self, y, term):
        """Integral of Psi(r, tau) y over tau >= r plus Psi(r, T) term, for a
        y of shape (m, K+1, n) and a terminal term of shape (m, n)."""
        m = y.shape[0]
        inner = (y.reshape(m, -1) @ self.kernel_up.T
                 + term @ self.fm.Psi[:, -1].reshape(-1, self.p.n).T)
        return inner.reshape(y.shape)

    def _forward(self, J):
        """Integral of Phi(t, r) J over r <= t, for J of shape (m, K+1, n)."""
        return (J.reshape(J.shape[0], -1) @ self.kernel_low.T).reshape(J.shape)

    def apply(self, surface):
        """Evaluate the operator on a surface of shape (M, K+1, n)."""
        p = self.p
        x = np.asarray(surface, dtype=float)
        z = self.vertex_average(x)
        y = (np.einsum("kij,mkj->mki", self.A1, x)
             + np.einsum("kij,mkj->mki", self.A2, z))
        term = (p.gamma0 * x[:, -1] + p.gamma * z[:, -1]) @ p.Q_T.T
        return self._forward(self._backward(y, term) @ p.BRB.T + z @ p.D.T)

    def forcing(self):
        """Affine part of the fixed-point equation, identical at all vertices."""
        p = self.p
        y = np.broadcast_to(p.Q @ p.eta, (1, p.K + 1, p.n))
        J = self._backward(y, (p.Q_T @ p.eta)[None]) @ p.BRB.T
        return self.fm.Phi[:, 0] @ p.x0 + self._forward(J)[0]

    def norm_bound(self):
        """Quadrature evaluation of the operator-norm bound c_Lambda."""
        p, fm = self.p, self.fm
        K1, n = p.K + 1, p.n
        c_g = float(self.Gw.sum(axis=1).max())
        a1 = (np.linalg.norm(self.A1, axis=(1, 2))
              + c_g * np.linalg.norm(self.A2, axis=(1, 2)))  # (K+1,)
        gamma_mix = abs(p.gamma0) + c_g * abs(p.gamma)
        # Gram matrices A'A of Phi(t,r) BRB and B B' of Psi(r,tau), each row
        # padded with a zero: the zeros add nothing to the inner products but
        # keep the matmul off its ~3x slower path for an inner dimension of
        # one. One output buffer serves every r.
        gram_a = np.zeros((K1, n, n + 1))
        gram_b = np.zeros((K1, n, n + 1))
        buf = np.empty(K1 * K1)
        inner = np.zeros((K1, K1))   # [t, r], rows t >= r
        for r in range(K1):
            m = K1 - r
            PB = fm.Phi[r:, r] @ p.BRB
            np.einsum("tji,tjk->tik", PB, PB, out=gram_a[:m, :, :n])
            np.einsum("uij,ukj->uik", fm.Psi[r, r:], fm.Psi[r, r:],
                      out=gram_b[:m, :, :n])
            nb = np.matmul(gram_a[:m].reshape(m, -1), gram_b[:m].reshape(m, -1).T,
                           out=buf[:m * m].reshape(m, m))  # (t, tau)
            np.maximum(nb, 0.0, out=nb)
            np.sqrt(nb, out=nb)
            end = np.linalg.norm(PB @ (fm.Psi[r, -1] @ p.Q_T), axis=(1, 2))
            inner[r:, r] = (nb @ (self.w_up[r, r:] * a1[r:]) + end * gamma_mix
                            + c_g * np.linalg.norm(fm.Phi[r:, r] @ p.D, axis=(1, 2)))
        totals = np.einsum("tr,tr->t", self.w_low, inner)
        return float(totals.max())


def _weighted_kernel(weights, table):
    """The (K+1)n x (K+1)n matrix of weights[a, b] * table[a, b] with block
    row a and block column b."""
    K1, n = table.shape[0], table.shape[2]
    kernel = weights[:, :, None, None] * table
    return kernel.transpose(0, 2, 1, 3).reshape(K1 * n, K1 * n)


@dataclass
class LQSolution:
    """Mean-field surface, offsets, and affine feedback of the LQ game."""

    params: LQParams
    riccati: RiccatiPath
    fundamentals: FundamentalMatrices
    xbar: np.ndarray            # (M, K+1, n)
    zbar: np.ndarray            # (M, K+1, n) graphon-weighted average
    s: np.ndarray               # (M, K+1, n) offsets
    feedback_gain: np.ndarray   # (K+1, n_u, n), u = -gain x - offset
    feedback_offset: np.ndarray  # (M, K+1, n_u)
    c_lambda: float
    iterations: int
    residual: float
    changes: list = field(default_factory=list)

    def control(self, v, k, x):
        return -(self.feedback_gain[k] @ np.atleast_1d(x)) - self.feedback_offset[v, k]


def solve_lq_fixed_point(p, tol=1e-9, max_iter=200, x_init=None, operator=None):
    """Picard iteration for the vertex-mean surface plus offset recovery.

    Starts from the forcing surface (or a caller-supplied initialization),
    iterates surface <- Lambda(surface) + forcing until the sup change drops
    below ``tol``, then recovers the offset paths by a backward RK4 pass and
    assembles the affine best-response feedback. A norm bound at or above
    one only warns; the iteration then runs with a divergence guard.
    """
    op = operator if operator is not None else LambdaOperator(p)
    c_lam = op.norm_bound()
    if c_lam >= 1.0:
        warnings.warn(f"operator norm bound {c_lam:.3g} >= 1; iterating with guard",
                      stacklevel=2)
    forcing = op.forcing()
    base = np.broadcast_to(forcing, (p.M,) + forcing.shape).copy()
    x = base.copy() if x_init is None else np.asarray(x_init, dtype=float).copy()
    changes = []
    for it in range(1, max_iter + 1):
        x_new = op.apply(x) + base
        change = float(np.abs(x_new - x).max())
        changes.append(change)
        x = x_new
        if change < tol:
            break
        if len(changes) >= 10 and changes[-1] > 2.0 * changes[-10] and changes[-1] > tol:
            raise ConvergenceError("fixed-point iteration diverging", trace=changes)
    else:
        raise ConvergenceError(f"no fixed point below {tol:.3g} in {max_iter} passes",
                               trace=changes)
    residual = float(np.abs(x - op.apply(x) - base).max())

    z = op.vertex_average(x)
    s = _recover_offsets(p, op.ric, x, z)
    gain = np.einsum("ij,kjl->kil", p.Rinv @ p.B.T, op.ric.Pi)
    offset = np.einsum("ij,mkj->mki", p.Rinv @ p.B.T, s)
    return LQSolution(p, op.ric, op.fm, x, z, s, gain, offset, c_lam,
                      len(changes), residual, changes)


def _recover_offsets(p, ric, xbar, zbar):
    """Backward RK4 for the offset ODE driven by the mean-field surface."""
    K, n, M = p.K, p.n, xbar.shape[0]
    dt = p.T / K
    fine_Pi = np.empty((2 * K + 1, n, n))
    fine_Pi[::2] = ric.Pi
    fine_Pi[1::2] = ric.Pi_half
    # surface values at half nodes by linear interpolation
    xb_h = 0.5 * (xbar[:, 1:] + xbar[:, :-1])
    zb_h = 0.5 * (zbar[:, 1:] + zbar[:, :-1])

    def drive(j, xb, zb):
        Pi = fine_Pi[j]
        return (xb @ (p.gamma0 * p.Q - Pi @ p.D0).T
                + zb @ (p.gamma * p.Q - Pi @ p.D).T + p.Q @ p.eta)

    def rhs(j, s, xb, zb):
        Pi = fine_Pi[j]
        M2 = p.A - p.BRB @ Pi
        return -(s @ M2) + drive(j, xb, zb)

    s = np.empty((M, K + 1, n))
    s[:, K] = -(p.gamma0 * xbar[:, K] + p.gamma * zbar[:, K] + p.eta) @ p.Q_T.T
    for k in range(K - 1, -1, -1):
        cur = s[:, k + 1]
        k1 = rhs(2 * k + 2, cur, xbar[:, k + 1], zbar[:, k + 1])
        k2 = rhs(2 * k + 1, cur - 0.5 * dt * k1, xb_h[:, k], zb_h[:, k])
        k3 = rhs(2 * k + 1, cur - 0.5 * dt * k2, xb_h[:, k], zb_h[:, k])
        k4 = rhs(2 * k, cur - dt * k3, xbar[:, k], zbar[:, k])
        s[:, k] = cur - (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def lq_consistency_vs_simulation(p, sol, R_mc=10_000, seed=0, ode_tol=1e-3):
    """Monte-Carlo check that the controlled population reproduces the means.

    Simulates the per-vertex linear SDE under the computed affine feedback
    (Heun drift, exact Gaussian increments) and compares empirical vertex
    means against the solved surface within the CLT band
    4 sqrt(trace(Sigma Sigma') t) / sqrt(R_mc) plus an ODE slack.
    """
    K, n = p.K, p.n
    dt = p.T / K
    root_dt = math.sqrt(dt)
    trace_noise = float(np.sum(p.Sigma**2))
    band = 4.0 * np.sqrt(trace_noise * p.times) / math.sqrt(R_mc) + ode_tol
    dev = np.zeros((p.M, K + 1))

    def coeff(k, v):
        M_cl = p.A - p.BRB @ sol.riccati.Pi[k] + p.D0
        b = p.D @ sol.zbar[v, k] - p.BRB @ sol.s[v, k]
        return M_cl, b

    for v in range(p.M):
        gen = rng.stream(seed, rng.PROPAGATE, v)
        X = np.broadcast_to(p.x0, (R_mc, n)).copy()
        for k in range(K):
            M0, b0 = coeff(k, v)
            M1, b1 = coeff(k + 1, v)
            f1 = X @ M0.T + b0
            Xp = X + dt * f1
            f2 = Xp @ M1.T + b1
            noise = gen.standard_normal((R_mc, p.n_w)) @ p.Sigma.T
            X = X + 0.5 * dt * (f1 + f2) + root_dt * noise
            dev[v, k + 1] = np.abs(X.mean(axis=0) - sol.xbar[v, k + 1]).max()
        dev[v, 0] = 0.0
    margin = dev - band[None, :]
    return {
        "max_deviation": float(dev.max()),
        "max_margin": float(margin.max()),
        "band": band,
        "deviations": dev,
        "passed": bool(np.all(margin <= 0.0)),
    }
