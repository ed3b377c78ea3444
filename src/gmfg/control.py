"""Per-vertex stochastic optimal control against a frozen measure ensemble.

Given problem data, a graphon section, and a frozen ensemble of local mean
fields, this module tabulates the measure-coupled drift and running-cost
fields, minimizes the Hamiltonian (a closed-form clamp, since the dynamics
are control-affine with quadratic control cost), and runs the backward
semi-implicit value sweep that produces the feedback policy. It also holds
the Euler-Maruyama stepper that every particle and agent simulation shares.
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from .artifacts import index_columns, write_csv
from .coefficients import Constant, Poly2
from .errors import ConfigError, InvariantError, NumericalError
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
        floor = float(np.min(l2v + l4v))
        if floor <= 0:
            raise InvariantError("sampled l2 + l4 must have a positive floor")
        self.c0 = floor


def theta_clamp(s, a, b):
    """Minimizer of u^2 - 2 s u over [a, b]: s clamped to the interval."""
    return np.clip(s, a, b)


def _bracket_table(component, x_grid, atoms, weights):
    # integral of component(x, z) against an atomic measure, tabulated on x.
    vals = component(x_grid[:, None], atoms[None, :])
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (x_grid.size, atoms.size))
    return vals @ weights


class FrozenFields:
    """Measure-coupled drift and cost fields at one vertex, time-frozen.

    The fields reduce to per-time tables on the space grid: drift
    coefficient (of u), constant cost, and quadratic cost coefficient;
    evaluation interpolates linearly in x.
    """

    def __init__(self, problem, alpha, x_grid, times):
        self.problem = problem
        self.alpha = float(alpha)
        self.x_grid = np.asarray(x_grid, dtype=float)
        self.times = np.asarray(times, dtype=float)
        self.drift_coef = None   # (K+1, N_x)
        self.cost_const = None
        self.cost_quad = None

    def drift(self, k, x, u):
        """Drift field value at time node k."""
        return np.interp(x, self.x_grid, self.drift_coef[k]) * u

    def cost(self, k, x, u):
        """Running-cost field value at time node k."""
        const = np.interp(x, self.x_grid, self.cost_const[k])
        quad = np.interp(x, self.x_grid, self.cost_quad[k])
        return const + quad * np.asarray(u) ** 2

    def drift_bound(self):
        """Upper estimate of sup |drift| over the grid and the control set."""
        umax = max(abs(self.problem.u_min), abs(self.problem.u_max))
        return float(np.abs(self.drift_coef).max() * umax)


def frozen_fields(problem, g, alpha, ensemble, x_grid, compress_q=128,
                  drift_only=False):
    """Freeze the drift and cost fields at vertex ``alpha``.

    The intra bracket integrates against the local measure at the ensemble
    vertex nearest alpha (exact when alpha is a grid midpoint); the graphon
    bracket integrates against the section-weighted mixture of all vertex
    measures, with midpoint-rule vertex quadrature. Measures are quantile
    compressed to ``compress_q`` atoms before tabulation. ``drift_only``
    skips the cost tables for propagation-only callers.
    """
    grid = VertexGrid(ensemble.n_vertices)
    fields = FrozenFields(problem, alpha, x_grid, ensemble.times)
    comp = ensemble.compress(compress_q)
    v_own = int(np.argmin(np.abs(grid.midpoints - alpha)))
    gw = g.evaluate(float(alpha), grid.midpoints) / grid.M  # (M,) mixture weights
    K1 = ensemble.n_times
    p = problem.structured_parts
    nx = x_grid.size
    fields.drift_coef = np.empty((K1, nx))
    if not drift_only:
        fields.cost_const = np.empty((K1, nx))
        fields.cost_quad = np.empty((K1, nx))
    for k in range(K1):
        own_a = comp.atoms[v_own, k]
        own_w = comp.weights[v_own, k]
        mix_a, mix_w = _mixture(comp, k, gw, compress_q)
        f0b = _bracket_table(p["f0"], x_grid, own_a, own_w)
        fb = _bracket_table(p["f"], x_grid, mix_a, mix_w) if mix_a.size else 0.0
        fields.drift_coef[k] = f0b + fb
        if drift_only:
            continue
        l1b = _bracket_table(p["l1"], x_grid, own_a, own_w)
        l2b = _bracket_table(p["l2"], x_grid, own_a, own_w)
        if mix_a.size:
            l3b = _bracket_table(p["l3"], x_grid, mix_a, mix_w)
            l4b = _bracket_table(p["l4"], x_grid, mix_a, mix_w)
        else:
            l3b = l4b = 0.0
        fields.cost_const[k] = l1b + l3b
        fields.cost_quad[k] = l2b + l4b
    return fields


def _mixture(comp, k, gw, n_out):
    """Section-weighted mixture of the vertex measures at time node k.

    Returns (atoms, weights) with total mass sum_j g(alpha, m_j) / M;
    recompressed to ``n_out`` equally weighted atoms scaled by the mass.
    """
    mass = float(gw.sum())
    if mass <= 0.0:
        return np.empty(0), np.empty(0)
    atoms = comp.atoms[:, k, :].reshape(-1)
    weights = (gw[:, None] * comp.weights[:, k, :]).reshape(-1) / mass
    order = np.argsort(atoms, kind="stable")
    atoms, weights = atoms[order], weights[order]
    cum = np.cumsum(weights)
    levels = (np.arange(n_out) + 0.5) / n_out
    idx = np.minimum(np.searchsorted(cum, levels, side="left"), atoms.size - 1)
    return atoms[idx], np.full(n_out, mass / n_out)


def minimize_hamiltonian(fields, k, x, q):
    """Pointwise minimizer of q * drift + cost over the control interval.

    With drift coefficient c and quadratic cost coefficient d at x, the
    minimizer is the clamp of -q c / (2 d) to the control set.
    """
    p = fields.problem
    coef = np.interp(x, fields.x_grid, fields.drift_coef[k])
    quad = np.interp(x, fields.x_grid, fields.cost_quad[k])
    if np.any(quad <= 0.0):
        raise InvariantError("quadratic control-cost bracket is not positive")
    h = -coef / (2.0 * quad)
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
        self.x_grid = np.asarray(x_grid, dtype=float)
        self.times = np.asarray(times, dtype=float)

    @property
    def dx(self):
        return float(self.x_grid[1] - self.x_grid[0])

    def v_x(self):
        return np.gradient(self.values, self.x_grid, axis=1)

    def at(self, k, x):
        return np.interp(x, self.x_grid, self.values[k])

    def to_csv(self, path):
        write_csv(path, ["t_index", "x_index", "value"],
                  index_columns(self.values))


class Policy:
    """Tabulated feedback control, linear in x and left-constant in t."""

    def __init__(self, values, x_grid, times, bounds):
        self.values = np.asarray(values, dtype=float)
        self.x_grid = np.asarray(x_grid, dtype=float)
        self.times = np.asarray(times, dtype=float)
        self.bounds = (float(bounds[0]), float(bounds[1]))
        if np.any(self.values < self.bounds[0] - 1e-12) or np.any(self.values > self.bounds[1] + 1e-12):
            raise InvariantError("policy values leave the control set")

    def eval_index(self, k, x):
        return np.interp(x, self.x_grid, self.values[k])

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
    """Backward semi-implicit solve of the vertex value equation.

    Sweeps from the zero terminal condition: at each step the Hamiltonian is
    minimized with an upwind one-sided difference chosen by drift direction
    (candidate minimizers from the forward and backward differences, kept
    when self-consistent), the drift and cost terms enter explicitly, and
    the diffusion is implicit through a tridiagonal solve with zero-slope
    boundaries. Returns the value grid and the extracted feedback policy.
    """
    if fields is None:
        fields = frozen_fields(problem, g, alpha, ensemble, x_grid, compress_q)
    x = np.asarray(x_grid, dtype=float)
    times = fields.times
    nx, K1 = x.size, times.size
    dt = float(times[1] - times[0])
    dx = float(x[1] - x[0])
    bound = fields.drift_bound()
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

    V = np.zeros((K1, nx))
    policy = np.zeros((K1, nx))
    for k in range(K1 - 2, -1, -1):
        Vn = V[k + 1]
        Dp = np.zeros(nx)
        Dm = np.zeros(nx)
        Dp[:-1] = (Vn[1:] - Vn[:-1]) / dx
        Dm[1:] = (Vn[1:] - Vn[:-1]) / dx
        u_p = minimize_hamiltonian(fields, k, x, Dp)
        u_m = minimize_hamiltonian(fields, k, x, Dm)
        f_p = fields.drift(k, x, u_p)
        f_m = fields.drift(k, x, u_m)
        H_p = f_p * Dp + fields.cost(k, x, u_p)
        H_m = f_m * Dm + fields.cost(k, x, u_m)
        ok_p = f_p >= 0.0
        ok_m = f_m <= 0.0
        use_p = ok_p & (~ok_m | (H_p <= H_m))
        # Neither candidate self-consistent: fall back to the central slope.
        neither = ~ok_p & ~ok_m
        if np.any(neither):
            u_c = minimize_hamiltonian(fields, k, x, 0.5 * (Dp + Dm))
            f_c = fields.drift(k, x, u_c)
            H_c = f_c * np.where(f_c > 0, Dp, Dm) + fields.cost(k, x, u_c)
            u_m = np.where(neither, u_c, u_m)
            H_m = np.where(neither, H_c, H_m)
        u_k = np.where(use_p, u_p, u_m)
        H_k = np.where(use_p, H_p, H_m)
        rhs = Vn + dt * H_k
        V[k] = solve_banded((1, 1), ab, rhs)
        if not np.all(np.isfinite(V[k])):
            raise NumericalError(f"value sweep produced non-finite values at step {k}")
        policy[k] = u_k
    policy[K1 - 1] = minimize_hamiltonian(fields, K1 - 1, x, np.zeros(nx))
    vg = ValueGrid(V, x, times)
    pol = Policy(policy, x, times, (problem.u_min, problem.u_max))
    return vg, pol


def euler_maruyama(x0, noise, dt, sigma, drift):
    """Euler-Maruyama paths of dX = drift dt + sigma dW from the states x0.

    ``noise`` holds the (N, K) standard normal increments and ``drift(k, x)``
    returns the drift of the states ``x`` at time node k; it is called for
    k = 0..K-1 in order, so it may also record per-step quantities.
    Returns the (N, K+1) paths.
    """
    x = np.asarray(x0, dtype=float)
    n, K = noise.shape
    paths = np.empty((n, K + 1))
    paths[:, 0] = x
    root_dt = math.sqrt(dt)
    for k in range(K):
        x = x + drift(k, x) * dt + sigma * root_dt * noise[:, k]
        paths[:, k + 1] = x
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
