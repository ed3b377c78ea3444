"""Closed-form linear-quadratic pipeline on a graphon.

Every agent solves a tracking LQ regulator whose reference mixes its own
vertex mean, the graphon-weighted mean of all vertices, and a constant
offset. The solve reduces to one Riccati path shared by all vertices, the
fundamental matrices of the closed-loop drift and its adjoint, and a linear
integral operator acting on the vertex-mean surface; when that operator's
norm bound is below one the mean-field surface is the limit of a Picard
iteration and the per-vertex feedback is affine. The Riccati and
fundamental-matrix ODEs both take the one classical RK4 step :func:`_rk4`
on the half-step grid. The Riccati path is the Moebius image of a linear
Hamiltonian system with a constant matrix, so one :func:`_rk4` step of the
identity is its step map at every node, and the path is read in anchored
blocks from that map's powers. The fundamental-matrix ODEs are linear, so
one :func:`_rk4` call over all K steps tabulates their one-step maps, and
the solution is one small product per node. The fundamental matrices are
kept as factors, Phi(t, s) = U(t) U(s)^-1, so the operator's trapezoid
integrals are cumulative sums and its memory is linear in the number of
time nodes. The feedback offsets are the operator's own backward integral
of the solved surface (:meth:`LambdaOperator.offsets`), so the reported
feedback reproduces the surface in the operator's quadrature.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .control import euler_maruyama_steps
from .errors import ConvergenceError, InvariantError, NumericalError
from .graphon import VertexGrid

_BLOWUP = 1e8
_LQ_MAX_ITER = 200
# slack of the Monte-Carlo band for the ODE discretization
_LQ_ODE_TOL = 1e-3
# rows of Phi or Psi per block of the one-input norm bound
_BOUND_ROWS = 64
# half-steps per anchored block of the Riccati path, and the growth of the
# block's step-map power that ends it early
_BLOCK_STEPS = 64
_BLOCK_GROWTH = 1e4


def _sym(m):
    return 0.5 * (m + m.T)


def _finite(value, name):
    a = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvariantError(f"{name} entries must be finite")
    return a


def _as_matrix(value, shape, name):
    m = np.atleast_2d(_finite(value, name))
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
        A = np.atleast_2d(_finite(A, "A"))
        n = A.shape[0]
        self.A = _as_matrix(A, (n, n), "A")
        B = np.atleast_2d(_finite(B, "B"))
        if B.shape[0] != n:
            raise InvariantError("B must have n rows")
        self.B = B
        self.n, self.n_u = B.shape
        self.D0 = _as_matrix(D0, (n, n), "D0")
        self.D = _as_matrix(D, (n, n), "D")
        Sigma = np.atleast_2d(_finite(Sigma, "Sigma"))
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
        self.eta = _finite(eta, "eta").reshape(n)
        self.x0 = _finite(x0, "x0").reshape(n)
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


@dataclass
class RiccatiPath:
    """Backward Riccati solution on the shared time grid."""

    half_steps: np.ndarray   # (2K+1, n, n), symmetric, the RK4 half-step path

    @property
    def Pi(self):        # (K+1, n, n), the time nodes
        return self.half_steps[::2]


def _rk4(rhs, y, h, j):
    """One classical RK4 step of y' = rhs(i, y) from fine node j.

    The fine grid holds the nodes and their midpoints, so the step of
    length h reads the middle stages at node j + 1 and the last at j + 2;
    a negative h steps backward, from j through j - 1 to j - 2. An array
    j of start nodes, with y stacked along its first axis, takes all
    those forward steps in one call.
    """
    d = 1 if h > 0 else -1
    k1 = rhs(j, y)
    k2 = rhs(j + d, y + 0.5 * h * k1)
    k3 = rhs(j + d, y + 0.5 * h * k2)
    k4 = rhs(j + 2 * d, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def solve_riccati(p):
    """Backward solve of the matrix Riccati equation through its Hamiltonian
    system.

    Pi = Y X^-1 where [X; Y]' = H [X; Y] with the constant
    H = [[A, -BRB], [-Q, -A']] (Radon's lemma), so one backward
    :func:`_rk4` half-step of the identity under H is a step map G shared
    by every node, and the path is fourth order on the half-step grid.
    The powers G^1..G^m are chained once; a block anchored at half-node a
    with X = I reads Pi at its m nodes from one batched product
    G^i [I; Pi_a] and one batched solve, symmetrized, and the next block
    anchors at its last node. A block holds at most ``_BLOCK_STEPS``
    half-steps and ends once max|G^m| passes ``_BLOCK_GROWTH``, which keeps
    X well conditioned when H is stiff. Finite-escape blow-up raises
    instead of returning garbage: the finished path is checked once, and
    the error names the first node (in backward time) past ``_BLOWUP``; an
    exactly singular X is a pole of Pi and is named the same way.
    """
    n, K = p.n, p.K
    h = p.T / (2 * K)
    H = np.block([[p.A, -p.BRB], [-p.Q, -p.A.T]])
    fine = np.empty((2 * K + 1, n, n))
    fine[-1] = _sym(p.Q_T)
    # steps past the float range are caught by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [_rk4(lambda _, z: H @ z, np.eye(2 * n), -h, 0)]
        while (len(powers) < min(_BLOCK_STEPS, 2 * K)
               and np.abs(powers[-1]).max() <= _BLOCK_GROWTH):
            powers.append(powers[0] @ powers[-1])
        powers = np.array(powers)
        a = 2 * K
        while a > 0:
            m = min(len(powers), a)
            Z = powers[:m] @ np.vstack([np.eye(n), fine[a]])
            Xt, Yt = np.swapaxes(Z[:, :n], 1, 2), np.swapaxes(Z[:, n:], 1, 2)
            try:
                S = np.linalg.solve(Xt, Yt)
            except np.linalg.LinAlgError:
                # an exactly singular X is a pole of Pi: the check below names it
                pole = ~(np.abs(np.linalg.det(Xt)) > 0)
                Xt[pole] = np.eye(n)
                S = np.linalg.solve(Xt, Yt)
                S[pole] = np.inf
            fine[a - m:a] = 0.5 * (S + np.swapaxes(S, 1, 2))[::-1]
            a -= m
    escaped = np.flatnonzero(~np.all(np.abs(fine) <= _BLOWUP, axis=(1, 2)))
    if escaped.size:
        raise NumericalError(f"Riccati finite escape near t={escaped[-1] * h:.4g}")
    return RiccatiPath(fine)


@dataclass
class FundamentalMatrices:
    """Factors of the fundamental matrices on the time nodes.

    Phi(t, s) = U[t] U_inv[s] and Psi(t, s) = W[t] W_inv[s]; each table has
    shape (K+1, n, n), so no table over node pairs is ever formed.
    """

    U: np.ndarray
    U_inv: np.ndarray
    W: np.ndarray
    W_inv: np.ndarray


def fundamental_matrices(p, ric):
    """Fundamental solutions of the closed-loop drift and its adjoint.

    Phi solves xdot = (A - B R^-1 B' Pi_t + D0) x and Psi solves
    ydot = -(A - B R^-1 B' Pi_t)' y; both satisfy Phi(s, s) = I. When
    D0 = 0, Psi(t, s) equals Phi(s, t) transposed. Each factor solves
    U' = C(t) U, U(0) = I, forward by RK4 over its (2K+1, n, n)
    coefficient table C on the fine grid. The ODE is linear, so the step
    from node k is U[k+1] = G[k] U[k] with G[k] the step of the identity:
    one :func:`_rk4` call builds all K maps G, then one small product per
    node chains them, and the inverse is one batched ``np.linalg.inv``. A
    factor that grows past ``_BLOWUP`` or that is singular to working
    precision raises NumericalError.
    """
    dt = p.T / p.K
    starts = 2 * np.arange(p.K)
    eye = np.broadcast_to(np.eye(p.n), (p.K, p.n, p.n))
    closed = p.A - p.BRB @ ric.half_steps
    factors = []
    for coef in (closed + p.D0, -np.swapaxes(closed, 1, 2)):
        G = _rk4(lambda j, u: coef[j] @ u, eye, dt, starts)
        U = np.empty((p.K + 1, p.n, p.n))
        U[0] = np.eye(p.n)
        # a product past the float range is caught by the check below
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(p.K):
                np.matmul(G[k], U[k], out=U[k + 1])
        if not np.all(np.abs(U) <= _BLOWUP):
            raise NumericalError("fundamental matrix overflow")
        try:
            factors += [U, np.linalg.inv(U)]
        except np.linalg.LinAlgError:
            # a stiff drift can shrink U(t) below working precision
            raise NumericalError("fundamental matrix is singular to working "
                                 "precision") from None
    return FundamentalMatrices(*factors)


def _trapezoid(first, last, nodes, dt):
    """Trapezoid weights of the span of nodes first..last, read at
    ``nodes`` (all three broadcast); a one-node span weighs nothing."""
    inside = (nodes >= first) & (nodes <= last)
    return dt * inside - 0.5 * dt * (nodes == first) - 0.5 * dt * (nodes == last)


class LambdaOperator:
    """The linear map on vertex-mean surfaces whose fixed point solves the game.

    Applies, for each vertex and time, the double time integral of the
    closed-loop kernels against the surface and its graphon-weighted vertex
    average, plus the terminal-cost boundary term. Trapezoid rule in both
    time variables, midpoint rule in the vertex variable; the norm bound is
    evaluated with exactly the same quadrature so the contraction check is
    self-consistent.

    Both time integrals are semiseparable, since Phi(t, r) = U[t] U_inv[r]
    and Psi(r, tau) = W[r] W_inv[tau]: the forward integral over r <= t is
    U[t] times a cumulative trapezoid sum of U_inv J, and the backward one
    over tau >= r is W[r] times a reverse cumulative sum of W_inv y. So
    ``offsets``, ``apply`` and ``forcing`` cost O(M K n^2) and the operator
    holds only (K+1, n, n) factor tables.
    The norm bound needs the Frobenius norms of Phi(t,r) BRB Psi(r,tau).
    With one control input BRB = l l', so each norm is |Phi(t,r) l| times
    |Psi(r,tau)' l|: the bound costs O(K^2) small products, read in fixed
    blocks of rows whose Phi, Psi and trapezoid weights are built from the
    factors, with no (K+1) x (K+1) temporary. With two or more inputs it
    takes them in Gram form, |A B|_F^2 = <A'A, B B'>, as one matmul of
    (K+1-r) flattened Gram matrices against (K+1-r) others per r, over only
    the rows t >= r that the outer quadrature reads: O(K^3).
    """

    def __init__(self, p):
        self.p = p
        self.ric = solve_riccati(p)
        self.fm = fundamental_matrices(p, self.ric)
        self.dt = p.T / p.K
        self.Gw = p.vertex_grid.section_weights(p.graphon, p.vertex_grid.midpoints)
        # kernel coefficient matrices per time node
        self.A1 = p.gamma0 * p.Q[None] - np.einsum("kij,jl->kil", self.ric.Pi, p.D0)
        self.A2 = p.gamma * p.Q[None] - np.einsum("kij,jl->kil", self.ric.Pi, p.D)

    def vertex_average(self, surface):
        return (self.Gw @ surface.reshape(len(surface), -1)).reshape(surface.shape)

    def _backward(self, y, term):
        """Integral of Psi(r, tau) y over tau >= r plus Psi(r, T) term, for a
        y of shape (m, K+1, n) and a terminal term of shape (m, n)."""
        fm = self.fm
        g = np.einsum("kij,mkj->mki", fm.W_inv, y)
        tail = np.zeros_like(g)
        pairs = (0.5 * self.dt) * (g[:, :-1] + g[:, 1:])
        tail[:, :-1] = np.cumsum(pairs[:, ::-1], axis=1)[:, ::-1]
        tail += (term @ fm.W_inv[-1].T)[:, None]
        return np.einsum("kij,mkj->mki", fm.W, tail)

    def _forward(self, J):
        """Integral of Phi(t, r) J over r <= t, for J of shape (m, K+1, n)."""
        fm = self.fm
        h = np.einsum("kij,mkj->mki", fm.U_inv, J)
        head = np.zeros_like(h)
        np.cumsum((0.5 * self.dt) * (h[:, :-1] + h[:, 1:]), axis=1, out=head[:, 1:])
        return np.einsum("kij,mkj->mki", fm.U, head)

    def offsets(self, surface, eta):
        """Feedback offsets s and vertex average z of a surface of shape
        (M, K+1, n) under the tracking offset ``eta``.

        s(t) = -(integral of Psi(t, tau) y over tau >= t + Psi(t, T) term),
        with y = A1 xbar + A2 z + Q eta and the terminal term
        Q_T (gamma0 xbar_T + gamma z_T + eta): the backward trapezoid
        integral of the operator itself.
        """
        p = self.p
        x = np.asarray(surface, dtype=float)
        z = self.vertex_average(x)
        y = (np.einsum("kij,mkj->mki", self.A1, x)
             + np.einsum("kij,mkj->mki", self.A2, z) + p.Q @ eta)
        term = (p.gamma0 * x[:, -1] + p.gamma * z[:, -1] + eta) @ p.Q_T.T
        return -self._backward(y, term), z

    def apply(self, surface):
        """Evaluate the operator on a surface of shape (M, K+1, n): the
        forward integral of the feedback drive z D' - s BRB' of the
        surface's offsets at eta = 0."""
        p = self.p
        s, z = self.offsets(surface, np.zeros(p.n))
        return self._forward(z @ p.D.T - s @ p.BRB.T)

    def forcing(self):
        """Affine part of the fixed-point equation, identical at all vertices:
        U x0 plus the forward integral of the zero surface's drive."""
        p = self.p
        s, _ = self.offsets(np.zeros((p.M, p.K + 1, p.n)), p.eta)
        return self.fm.U @ p.x0 + self._forward(-s[:1] @ p.BRB.T)[0]

    def norm_bound(self):
        """Quadrature evaluation of the operator-norm bound c_Lambda."""
        p = self.p
        c_g = float(self.Gw.sum(axis=1).max())
        a1 = (np.linalg.norm(self.A1, axis=(1, 2))
              + c_g * np.linalg.norm(self.A2, axis=(1, 2)))  # (K+1,)
        gamma_mix = abs(p.gamma0) + c_g * abs(p.gamma)
        if p.n_u == 1:
            return self._rank_one_bound(c_g, a1, gamma_mix)
        return self._gram_bound(c_g, a1, gamma_mix)

    def _rank_one_bound(self, c_g, a1, gamma_mix):
        """The bound for one control input, where BRB = l l' and every
        Frobenius norm of Phi(t,r) BRB Psi(r,tau) is |Phi(t,r) l| times
        |Psi(r,tau)' l|: the r side sums to one number s_r per r, and
        the t side reads |Phi(t,r) l| and |Phi(t,r) D| in blocks of rows."""
        p, fm, dt = self.p, self.fm, self.dt
        K1 = p.K + 1
        nodes = np.arange(K1)
        l = p.B[:, 0] * math.sqrt(p.Rinv[0, 0])
        psi_end = np.einsum("rij,jk->rik", fm.W, fm.W_inv[-1])   # Psi[:, K]
        end = np.linalg.norm(np.einsum("rji,j->ri", psi_end, l) @ p.Q_T, axis=1)
        s = gamma_mix * end
        for r0 in range(0, K1, _BOUND_ROWS):
            r1 = min(r0 + _BOUND_ROWS, K1)
            psi = np.einsum("rij,ujk->ruik", fm.W[r0:r1], fm.W_inv[r0:])
            psi_l = np.linalg.norm(np.einsum("ruji,j->rui", psi, l), axis=2)
            w_up = _trapezoid(nodes[r0:r1, None], p.K, nodes[r0:], dt)
            s[r0:r1] += (w_up * psi_l) @ a1[r0:]
        totals = np.empty(K1)
        for t0 in range(0, K1, _BOUND_ROWS):
            t1 = min(t0 + _BOUND_ROWS, K1)
            phi = np.einsum("tij,rjk->trik", fm.U[t0:t1], fm.U_inv[:t1])
            inner = (np.linalg.norm(phi @ l, axis=2) * s[:t1]
                     + c_g * np.linalg.norm(phi @ p.D, axis=(2, 3)))
            w_low = _trapezoid(0, nodes[t0:t1, None], nodes[:t1], dt)
            totals[t0:t1] = np.einsum("tr,tr->t", w_low, inner)
        return float(totals.max())

    def _gram_bound(self, c_g, a1, gamma_mix):
        """The bound for two or more control inputs, with each Frobenius norm
        of Phi(t,r) BRB Psi(r,tau) taken in Gram form."""
        p, fm, dt = self.p, self.fm, self.dt
        K1 = p.K + 1
        nodes = np.arange(K1)
        buf = np.empty(K1 * K1)   # one output buffer serves every r
        totals = np.zeros(K1)
        for r in range(K1):
            m = K1 - r
            phi = np.einsum("tij,jk->tik", fm.U[r:], fm.U_inv[r])   # Phi[r:, r]
            psi = np.einsum("ij,ujk->uik", fm.W[r], fm.W_inv[r:])   # Psi[r, r:]
            PB = phi @ p.BRB
            # Gram matrices A'A of Phi(t,r) BRB and B B' of Psi(r,tau)
            gram_a = np.einsum("tji,tjk->tik", PB, PB).reshape(m, -1)
            gram_b = np.einsum("uij,ukj->uik", psi, psi).reshape(m, -1)
            nb = np.matmul(gram_a, gram_b.T, out=buf[:m * m].reshape(m, m))  # (t, tau)
            np.maximum(nb, 0.0, out=nb)
            np.sqrt(nb, out=nb)
            end = np.linalg.norm(PB @ (psi[-1] @ p.Q_T), axis=(1, 2))
            inner = (nb @ (_trapezoid(r, p.K, nodes[r:], dt) * a1[r:])
                     + end * gamma_mix + c_g * np.linalg.norm(phi @ p.D, axis=(1, 2)))
            # column r of the outer weights, over the rows t >= r
            totals[r:] += _trapezoid(0, nodes[r:], r, dt) * inner
        return float(totals.max())


@dataclass
class LQSolution:
    """Mean-field surface and offsets of the LQ game.

    The best response at vertex v is the affine feedback
    u = -R^-1 B' (Pi[t] x + s[v, t]), with Pi = ``riccati.Pi`` and
    R^-1 B' = ``params.Rinv @ params.B.T``; no per-node copy of it is kept.
    """

    params: LQParams
    riccati: RiccatiPath
    fundamentals: FundamentalMatrices
    xbar: np.ndarray            # (M, K+1, n)
    zbar: np.ndarray            # (M, K+1, n) graphon-weighted average
    s: np.ndarray               # (M, K+1, n) offsets
    c_lambda: float
    iterations: int
    residual: float
    changes: list = field(default_factory=list)


def solve_lq_fixed_point(p, tol=1e-9, x_init=None):
    """Picard iteration for the vertex-mean surface and its offsets.

    Starts from the forcing surface (or a caller-supplied initialization),
    iterates surface <- Lambda(surface) + forcing until the sup change drops
    below ``tol``, then reads the offset paths of the solved surface from
    :meth:`LambdaOperator.offsets`; with the Riccati path they fix the
    affine best response (:class:`LQSolution`). A norm bound at or above
    one only warns; the iteration then runs with a divergence guard.
    """
    op = LambdaOperator(p)
    c_lam = op.norm_bound()
    if c_lam >= 1.0:
        warnings.warn(f"operator norm bound {c_lam:.3g} >= 1; iterating with guard",
                      stacklevel=2)
    forcing = op.forcing()
    base = np.broadcast_to(forcing, (p.M,) + forcing.shape).copy()
    x = base.copy() if x_init is None else np.asarray(x_init, dtype=float).copy()
    changes = []
    for _ in range(_LQ_MAX_ITER):
        x_new = op.apply(x) + base
        change = float(np.abs(x_new - x).max())
        changes.append(change)
        x = x_new
        if change < tol:
            break
        if len(changes) >= 10 and changes[-1] > 2.0 * changes[-10] and changes[-1] > tol:
            raise ConvergenceError("fixed-point iteration diverging", trace=changes)
    else:
        raise ConvergenceError(f"no fixed point below {tol:.3g} in {_LQ_MAX_ITER} passes",
                               trace=changes)
    residual = float(np.abs(x - op.apply(x) - base).max())

    s, z = op.offsets(x, p.eta)
    return LQSolution(p, op.ric, op.fm, x, z, s, c_lam, len(changes), residual,
                      changes)


def lq_consistency_vs_simulation(p, sol, R_mc=10_000, seed=0):
    """Monte-Carlo check that the controlled population reproduces the means.

    Runs R_mc copies of each vertex's linear SDE under the computed affine
    feedback, one vertex at a time, through
    :func:`~gmfg.control.euler_maruyama_steps`: a Heun drift on closed-loop
    matrices and drives built once, exact Gaussian increments from one draw
    of the vertex's stream. Compares the empirical vertex means against the
    solved surface within the CLT band 4 sqrt(trace(Sigma Sigma') t) /
    sqrt(R_mc) plus an ODE slack.
    """
    K, n = p.K, p.n
    dt = p.T / K
    trace_noise = float(np.sum(p.Sigma**2))
    band = 4.0 * np.sqrt(trace_noise * p.times) / math.sqrt(R_mc) + _LQ_ODE_TOL
    closed = np.swapaxes(p.A - p.BRB @ sol.riccati.Pi + p.D0, 1, 2)   # (K+1, n, n)
    drive = sol.zbar @ p.D.T - sol.s @ p.BRB.T                       # (M, K+1, n)
    dev = np.zeros((p.M, K + 1))
    # time-major memory behind the (R_mc, n, K+1) view of the stepper
    buf = np.empty((K + 1, R_mc, n))
    for v in range(p.M):
        z = rng.stream(seed, rng.PROPAGATE, v).standard_normal((K, R_mc, p.n_w))
        buf[0] = p.x0
        np.multiply(math.sqrt(dt), z @ p.Sigma.T, out=buf[1:])
        del z   # freed before the next vertex draws

        def heun(k, x):
            f1 = x @ closed[k] + drive[v, k]
            f2 = (x + dt * f1) @ closed[k + 1] + drive[v, k + 1]
            return 0.5 * (f1 + f2)

        euler_maruyama_steps(np.moveaxis(buf, 0, -1), dt, heun)
        dev[v, 1:] = np.abs(buf[1:].mean(axis=1) - sol.xbar[v, 1:]).max(axis=1)
    margin = dev - band[None, :]
    return {
        "max_deviation": float(dev.max()),
        "max_margin": float(margin.max()),
        "band": band,
        "deviations": dev,
        "passed": bool(np.all(margin <= 0.0)),
    }
