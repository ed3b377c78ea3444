"""Vertex stochastic optimal control against a frozen measure ensemble.

Given problem data, graphon sections, and a frozen ensemble of local mean
fields, this module tabulates the measure-coupled drift and running-cost
fields, minimizes the Hamiltonian (a closed-form clamp, since the dynamics
are control-affine with quadratic control cost), and runs the backward
semi-implicit value sweep that produces the feedback policies. Fields and
sweep work on a whole batch of vertices at once. It also holds the
uniform-grid table lookup and the Euler-Maruyama stepper that every
particle and agent simulation shares.
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from .artifacts import index_columns, write_csv
from .coefficients import Constant, Poly2
from .errors import ConfigError, GridError, InvariantError, NumericalError
from .graphon import VertexGrid

_SAMPLE_PTS = np.linspace(-5.0, 5.0, 41)


class ProblemFunctions:
    """Dynamics and cost data for the nonlinear game.

    The dynamics are control-affine with quadratic control cost: drift
    components f0(x, y) u and f(x, y) u, running costs l1(x, y) + l2(x, y) u^2
    (intra) and l3(x, y) + l4(x, y) u^2 (graphon-coupled). The Hamiltonian
    minimizer is then a clamp of an explicit ratio.

    Every coefficient is a :class:`~gmfg.coefficients.Constant` or a
    :class:`~gmfg.coefficients.Poly2`: both evaluate pointwise on
    broadcastable arrays and integrate exactly against cluster samples. The
    control set is a compact interval [a, b] and the diffusion sigma is
    constant and positive.
    """

    def __init__(self, *, control_set, sigma, T, structured):
        a, b = float(control_set[0]), float(control_set[1])
        if not a < b:
            raise InvariantError("control set needs a < b")
        if not sigma > 0:
            raise InvariantError("sigma must be positive")
        if not T > 0:
            raise InvariantError("horizon T must be positive")
        self.u_min, self.u_max = a, b
        self.sigma = float(sigma)
        self.T = float(T)
        self.structured_parts = structured
        self._check_structured()

    @classmethod
    def structured(cls, f0, f, l1, l2, l3, l4, control_set, sigma, T):
        parts = {"f0": f0, "f": f, "l1": l1, "l2": l2, "l3": l3, "l4": l4}
        for name, part in parts.items():
            if not isinstance(part, (Constant, Poly2)):
                raise InvariantError(
                    f"coefficient {name} must be a Constant or a Poly2, "
                    f"not {type(part).__name__}")
        return cls(control_set=control_set, sigma=sigma, T=T, structured=parts)

    def _check_structured(self):
        # Quadratic control-cost coefficients must be nonnegative with a
        # positive combined floor, or the clamp minimizer is ill posed.
        p = self.structured_parts
        xg, yg = np.meshgrid(_SAMPLE_PTS, _SAMPLE_PTS)
        l2v = np.broadcast_to(np.asarray(p["l2"](xg, yg), dtype=float), xg.shape)
        l4v = np.broadcast_to(np.asarray(p["l4"](xg, yg), dtype=float), xg.shape)
        if np.any(l2v < 0) or np.any(l4v < 0):
            raise InvariantError("sampled l2/l4 must be nonnegative")
        if float(np.min(l2v + l4v)) <= 0:
            raise InvariantError("sampled l2 + l4 must have a positive floor")


def theta_clamp(s, a, b):
    """Minimizer of u^2 - 2 s u over [a, b]: s clamped to the interval."""
    return np.clip(s, a, b)


def _bracket_table(component, x_grid, atoms, weights):
    # integral of component(x, z) against one atomic measure per row of
    # (atoms, weights), tabulated on x: an (n_rows, N_x) table.
    n, q = atoms.shape
    vals = component(x_grid[None, :, None], atoms[:, None, :])
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (n, x_grid.size, q))
    return np.matmul(vals, weights[:, :, None])[:, :, 0]


def _uniform_grid(x_grid):
    # GridLookup finds cells arithmetically, so a space grid must be uniform
    x = np.asarray(x_grid, dtype=float)
    if (x.ndim != 1 or x.size < 2 or not x[-1] > x[0]
            or not np.allclose(np.diff(x), (x[-1] - x[0]) / (x.size - 1),
                               rtol=1e-9, atol=0.0)):
        raise GridError("space grid must be uniform and increasing, "
                        "with two nodes or more")
    return x


class GridLookup:
    """Cells of points on a uniform grid, shared by every table read there.

    The cell j of each point is found once (a floor, then a correction
    against the grid nodes); reading a table then gives exactly what
    ``np.interp`` gives: (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) times
    x - xp[j], plus fp[j], and the end values outside the grid. Tables are
    (n_rows, N_x); ``rows`` (broadcast against the points) picks the row
    each point reads, 0 for a batch of one. ``escaped`` counts the points
    outside the grid. The grid must be uniform, as every space grid of the
    package is.
    """

    def __init__(self, x_grid, x, rows=0):
        xp = np.asarray(x_grid, dtype=float)
        x = np.asarray(x, dtype=float)
        n = xp.size
        t = np.floor((x - xp[0]) * ((n - 1) / (xp[-1] - xp[0])))
        j = np.fmax(np.fmin(t, n - 2), 0).astype(np.intp)   # NaN lands in range
        j = np.clip(j + (x >= xp[j + 1]) - (x < xp[j]), 0, n - 2)
        self.n = n
        self.rows = rows
        self.flat = np.asarray(rows) * n + j
        self.offset = x - xp[j]
        self.widths = np.diff(xp)
        self.below = x < xp[0]
        self.above = x >= xp[-1]
        self.ends = bool(self.below.any() or self.above.any())
        self.escaped = (int(np.count_nonzero(self.below))
                        + int(np.count_nonzero(x[self.above] > xp[-1]))
                        if self.ends else 0)

    def __call__(self, table):
        table = np.asarray(table, dtype=float).reshape(-1, self.n)
        slope = np.zeros_like(table)
        np.divide(np.diff(table, axis=1), self.widths, out=slope[:, :-1])
        out = slope.take(self.flat) * self.offset + table.take(self.flat)
        if self.ends:
            out = np.where(self.below, table[self.rows, 0],
                           np.where(self.above, table[self.rows, -1], out))
        return out


class FrozenFields:
    """Measure-coupled drift and cost fields at a batch of vertices.

    The fields reduce to per-vertex, per-time tables on the space grid, each
    of shape (n_vertices, K+1, N_x): drift coefficient (of u), constant
    cost, and quadratic cost coefficient. ``alpha`` holds the vertex
    coordinates; a scalar vertex is a batch of one. Evaluation off the grid
    (``drift``, ``cost``, :func:`minimize_hamiltonian`) interpolates
    linearly in x and serves a batch of one; batched callers read their
    rows through one :class:`GridLookup`.
    """

    def __init__(self, problem, alpha, x_grid, times):
        self.problem = problem
        self.alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        self.x_grid = _uniform_grid(x_grid)
        self.times = np.asarray(times, dtype=float)
        self.drift_coef = None   # (n_vertices, K+1, N_x)
        self.cost_const = None
        self.cost_quad = None

    def drift(self, k, x, u):
        """Drift field value at time node k (first vertex of the batch)."""
        return GridLookup(self.x_grid, x)(self.drift_coef[:, k]) * u

    def cost(self, k, x, u):
        """Running-cost field value at time node k (first vertex of the batch)."""
        look = GridLookup(self.x_grid, x)
        return (look(self.cost_const[:, k])
                + look(self.cost_quad[:, k]) * np.asarray(u) ** 2)

    def drift_bound(self):
        """Per-vertex upper estimate of sup |drift| over the grid and the
        control set."""
        umax = max(abs(self.problem.u_min), abs(self.problem.u_max))
        return np.abs(self.drift_coef).max(axis=(1, 2)) * umax

    def cfl_margin(self):
        """Per-vertex room 1 - sup|drift| dt / dx under the stability bound
        of the value sweep; negative where the sweep would be unstable."""
        dt = self.times[1] - self.times[0]
        dx = self.x_grid[1] - self.x_grid[0]
        return 1.0 - self.drift_bound() * dt / dx


def frozen_fields(problem, g, alpha, ensemble, x_grid, compress_q=128,
                  drift_only=False):
    """Freeze the drift and cost fields at the vertices ``alpha``.

    ``alpha`` is one vertex coordinate or an array of them; every vertex is
    tabulated in one batch. The intra bracket integrates against the local
    measure at the ensemble vertex nearest alpha (exact when alpha is a grid
    midpoint); the graphon bracket integrates against the section-weighted
    mixture of all vertex measures, with midpoint-rule vertex quadrature.
    Measures are quantile compressed to ``compress_q`` atoms, once per call,
    before tabulation. ``drift_only`` skips the cost tables for
    propagation-only callers.
    """
    fields = FrozenFields(problem, alpha, x_grid, ensemble.times)
    x_grid = fields.x_grid
    grid = VertexGrid(ensemble.n_vertices)
    alphas = fields.alpha
    comp = ensemble.compress(compress_q)
    v_own = np.argmin(np.abs(grid.midpoints[None, :] - alphas[:, None]), axis=1)
    gw = g.evaluate(alphas[:, None], grid.midpoints[None, :]) / grid.M  # mixture weights
    mass = gw.sum(axis=1)
    coupled = mass > 0.0
    K1 = ensemble.n_times
    p = problem.structured_parts
    shape = (alphas.size, K1, x_grid.size)
    fields.drift_coef = np.empty(shape)
    if not drift_only:
        fields.cost_const = np.empty(shape)
        fields.cost_quad = np.empty(shape)

    def mixed(name, mix):
        # graphon bracket; vertices with a zero section get zero
        out = np.zeros((alphas.size, x_grid.size))
        if mix is not None:
            out[coupled] = _bracket_table(p[name], x_grid, *mix)
        return out

    for k in range(K1):
        own = comp.atoms[v_own, k], comp.weights[v_own, k]
        mix = (_mixture(comp, k, gw[coupled], mass[coupled], compress_q)
               if coupled.any() else None)
        fields.drift_coef[:, k] = (_bracket_table(p["f0"], x_grid, *own)
                                   + mixed("f", mix))
        if drift_only:
            continue
        fields.cost_const[:, k] = (_bracket_table(p["l1"], x_grid, *own)
                                   + mixed("l3", mix))
        fields.cost_quad[:, k] = (_bracket_table(p["l2"], x_grid, *own)
                                  + mixed("l4", mix))
    return fields


def _mixture(comp, k, gw, mass, n_out):
    """Section-weighted mixtures of the vertex measures at time node k.

    One mixture per row of ``gw`` (the weights g(alpha, m_j) / M of one
    vertex alpha, with positive total ``mass``). Returns (atoms, weights)
    of shape (rows, n_out): each mixture recompressed to ``n_out`` equally
    weighted atoms scaled by its mass. The pooled atoms are sorted once for
    all rows.
    """
    atoms = comp.atoms[:, k, :].reshape(-1)
    order = np.argsort(atoms, kind="stable")
    atoms = atoms[order]
    weights = (gw[:, :, None] * comp.weights[None, :, k, :]).reshape(len(gw), -1)
    cum = np.cumsum(weights[:, order] / mass[:, None], axis=1)
    levels = (np.arange(n_out) + 0.5) / n_out
    idx = np.array([np.searchsorted(c, levels, side="left") for c in cum])
    return (atoms[np.minimum(idx, atoms.size - 1)],
            np.repeat((mass / n_out)[:, None], n_out, axis=1))


def _control_ratio(coef, quad):
    # unclamped minimizer per unit adjoint: -c / (2 d)
    if np.any(quad <= 0.0):
        raise InvariantError("quadratic control-cost bracket is not positive")
    return -coef / (2.0 * quad)


def minimize_hamiltonian(fields, k, x, q):
    """Pointwise minimizer of q * drift + cost over the control interval.

    With drift coefficient c and quadratic cost coefficient d at x, the
    minimizer is the clamp of -q c / (2 d) to the control set.
    """
    p = fields.problem
    look = GridLookup(fields.x_grid, x)
    h = _control_ratio(look(fields.drift_coef[:, k]), look(fields.cost_quad[:, k]))
    return theta_clamp(np.asarray(q, dtype=float) * h, p.u_min, p.u_max)


class ValueGrid:
    """Space-time tabulation of a vertex value function."""

    def __init__(self, values, x_grid, times):
        v = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise NumericalError("value grid contains non-finite entries")
        if np.any(v[-1] != 0.0):
            raise InvariantError("terminal value must be exactly zero")
        self.values = v
        self.x_grid = _uniform_grid(x_grid)
        self.times = np.asarray(times, dtype=float)

    @property
    def dx(self):
        return float(self.x_grid[1] - self.x_grid[0])

    def at(self, k, x):
        return GridLookup(self.x_grid, x)(self.values[k])

    def to_csv(self, path):
        write_csv(path, ["t_index", "x_index", "value"],
                  index_columns(self.values))


class Policy:
    """Tabulated feedback control, linear in x and left-constant in t."""

    def __init__(self, values, x_grid, times, bounds):
        self.values = np.asarray(values, dtype=float)
        self.x_grid = _uniform_grid(x_grid)
        self.times = np.asarray(times, dtype=float)
        self.bounds = (float(bounds[0]), float(bounds[1]))
        if np.any(self.values < self.bounds[0] - 1e-12) or np.any(self.values > self.bounds[1] + 1e-12):
            raise InvariantError("policy values leave the control set")

    def eval_index(self, k, x):
        return GridLookup(self.x_grid, x)(self.values[k])

    def __call__(self, t, x):
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        k = min(max(k, 0), self.values.shape[0] - 1)
        return self.eval_index(k, x)

    def lipschitz(self):
        return policy_lipschitz(self)

    def to_csv(self, path):
        write_csv(path, ["t_index", "x_index", "value"],
                  index_columns(self.values))


def policy_lipschitz(policy):
    """Max over time of the max adjacent difference quotient in x."""
    dx = policy.x_grid[1] - policy.x_grid[0]
    if policy.values.shape[1] < 2:
        return 0.0
    return float(np.abs(np.diff(policy.values, axis=1)).max() / dx)


def solve_hjb(problem, g, alpha, ensemble, x_grid, fields=None, compress_q=128):
    """Backward semi-implicit solve of the vertex value equations.

    ``alpha`` is one vertex coordinate or an array of them, and every vertex
    is swept in one batch. Sweeps from the zero terminal condition: at each
    step the Hamiltonian is minimized with an upwind one-sided difference
    chosen by drift direction (candidate minimizers from the forward and
    backward differences, kept when self-consistent), the drift and cost
    terms enter explicitly, and the diffusion is implicit through one
    tridiagonal solve, with zero-slope boundaries, for all vertices. Returns
    the value grid and the extracted feedback policy, or lists of them, one
    per vertex, when ``alpha`` is an array.
    """
    if fields is None:
        fields = frozen_fields(problem, g, alpha, ensemble, x_grid, compress_q)
    x = np.asarray(x_grid, dtype=float)
    times = fields.times
    n, nx, K1 = fields.alpha.size, x.size, times.size
    dt = float(times[1] - times[0])
    dx = float(x[1] - x[0])
    bound = float(fields.drift_bound().max())
    if bound * dt > dx + 1e-12:
        raise ConfigError(
            f"stability requires |drift| dt <= dx: {bound:.3g} * {dt:.3g} > {dx:.3g}")

    nu = problem.sigma**2 * dt / (2.0 * dx * dx)
    ab = np.zeros((3, nx))
    ab[0, 1:] = -nu
    ab[1, :] = 1.0 + 2.0 * nu
    ab[2, :-1] = -nu
    ab[0, 1] = -2.0 * nu   # zero-slope (reflected) boundaries
    ab[2, -2] = -2.0 * nu

    def clamp(q, h):
        return theta_clamp(q * h, problem.u_min, problem.u_max)

    # the field tables live on x_grid, so they are read without interpolation
    V = np.zeros((n, K1, nx))
    policy = np.zeros((n, K1, nx))
    for k in range(K1 - 2, -1, -1):
        coef = fields.drift_coef[:, k]
        const = fields.cost_const[:, k]
        quad = fields.cost_quad[:, k]
        h = _control_ratio(coef, quad)
        Vn = V[:, k + 1]
        Dp = np.zeros((n, nx))
        Dm = np.zeros((n, nx))
        Dp[:, :-1] = (Vn[:, 1:] - Vn[:, :-1]) / dx
        Dm[:, 1:] = (Vn[:, 1:] - Vn[:, :-1]) / dx
        u_p = clamp(Dp, h)
        u_m = clamp(Dm, h)
        f_p = coef * u_p
        f_m = coef * u_m
        H_p = f_p * Dp + (const + quad * u_p ** 2)
        H_m = f_m * Dm + (const + quad * u_m ** 2)
        ok_p = f_p >= 0.0
        ok_m = f_m <= 0.0
        use_p = ok_p & (~ok_m | (H_p <= H_m))
        # Neither candidate self-consistent: fall back to the central slope.
        neither = ~ok_p & ~ok_m
        if np.any(neither):
            u_c = clamp(0.5 * (Dp + Dm), h)
            f_c = coef * u_c
            H_c = f_c * np.where(f_c > 0, Dp, Dm) + (const + quad * u_c ** 2)
            u_m = np.where(neither, u_c, u_m)
            H_m = np.where(neither, H_c, H_m)
        u_k = np.where(use_p, u_p, u_m)
        H_k = np.where(use_p, H_p, H_m)
        rhs = Vn + dt * H_k
        V[:, k] = solve_banded((1, 1), ab, rhs.T).T
        if not np.all(np.isfinite(V[:, k])):
            raise NumericalError(f"value sweep produced non-finite values at step {k}")
        policy[:, k] = u_k
    h = _control_ratio(fields.drift_coef[:, -1], fields.cost_quad[:, -1])
    policy[:, -1] = clamp(np.zeros((n, nx)), h)
    vgs = [ValueGrid(V[v], x, times) for v in range(n)]
    pols = [Policy(policy[v], x, times, (problem.u_min, problem.u_max))
            for v in range(n)]
    if np.ndim(alpha) == 0:
        return vgs[0], pols[0]
    return vgs, pols


def euler_maruyama(x0, noise, dt, sigma, drift):
    """Euler-Maruyama paths of dX = drift dt + sigma dW from the states x0.

    ``noise`` holds the (..., K) standard normal increments and
    ``drift(k, x)`` returns the drift of the states ``x`` at time node k.
    Returns the (..., K+1) paths; see :func:`euler_maruyama_steps`.
    """
    paths = np.empty(np.shape(noise)[:-1] + (np.shape(noise)[-1] + 1,))
    paths[..., 0] = x0
    np.multiply(sigma * math.sqrt(dt), noise, out=paths[..., 1:])
    return euler_maruyama_steps(paths, dt, drift)


def euler_maruyama_steps(paths, dt, drift):
    """The Euler-Maruyama time loop, in place on a (..., K+1) buffer.

    On entry ``paths[..., 0]`` holds the initial states and
    ``paths[..., k+1]`` the scaled Brownian increment sigma sqrt(dt) Z_k;
    on return each slot holds the state at its time node. ``drift(k, x)``
    is called for k = 0..K-1 in order, so it may also record per-step
    quantities. Returns ``paths``.
    """
    x = paths[..., 0].copy()
    for k in range(paths.shape[-1] - 1):
        x = x + drift(k, x) * dt + paths[..., k + 1]
        paths[..., k + 1] = x
    return paths


def rollout_cost(problem, fields, policy, x0, n_paths, seed):
    """Monte-Carlo cost of running a feedback policy from a point start.

    Euler-Maruyama under the frozen fields; returns (mean, standard error)
    of the accumulated running cost over ``n_paths`` replicas.
    """
    from . import rng

    times = fields.times
    dt = float(times[1] - times[0])
    noise = rng.stream(seed, rng.PROPAGATE, 0).standard_normal((n_paths, times.size - 1))
    cost = np.zeros(n_paths)

    def drift(k, x):
        u = policy.eval_index(k, x)
        cost[:] += fields.cost(k, x, u) * dt
        return fields.drift(k, x, u)

    euler_maruyama(np.full(n_paths, float(x0)), noise, dt, problem.sigma, drift)
    return float(cost.mean()), float(cost.std(ddof=1) / np.sqrt(n_paths))
