"""Vertex stochastic optimal control against a frozen measure ensemble.

Given problem data, graphon sections, and a frozen ensemble of local mean
fields, this module tabulates the measure-coupled drift and running-cost
fields (every coefficient integrated exactly against the vertex measures
through :mod:`gmfg.coefficients`), minimizes the Hamiltonian (a
closed-form clamp, since the dynamics are control-affine with quadratic
control cost), and runs the backward semi-implicit value sweep that
produces one (vertex, time, space) table each of values and feedback, and
the forward Fokker-Planck solve of the vertex laws on the same grid
(:func:`solve_fpk`); both share one implicit diffusion step D. The sweep
takes V_k = D(V_{k+1} + dt H_k) and the law m_{k+1} = D' T' m_k, with T
the upwind transport: both apply their two factors in the same order, so
neither step is the adjoint of the other (ROADMAP item 7).
Fields and sweeps work on a whole batch of vertices at once. It also holds
the uniform-grid table lookup, the Euler-Maruyama increments and stepper
that every particle and agent simulation shares (the Monte-Carlo check of
the LQ closed form too), and the one closed-loop kernel on them
(:func:`closed_loop_steps`) that runs the particles of
:func:`~gmfg.solver.propagate_closed_loop` and the agents of Systems C and
D under frozen drift fields.
"""

import math

import numpy as np

from . import rng
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
    (n_rows, N_x); ``rows`` (broadcast to the shape of the points) picks
    the row each point reads, 0 for a batch of one. ``escaped`` counts the
    points outside the grid. The grid must be uniform, as every space grid
    of the package is.
    """

    def __init__(self, x_grid, x, rows=0):
        xp = np.asarray(x_grid, dtype=float)
        x = np.asarray(x, dtype=float)
        n = xp.size
        self.shape = x.shape
        x = x.reshape(-1)
        t = np.floor((x - xp[0]) * ((n - 1) / (xp[-1] - xp[0])))
        j = np.fmax(np.fmin(t, n - 2), 0).astype(np.intp)   # NaN lands in range
        offset = x - xp.take(j)
        # the floor is one cell off next to a node, and every point off the
        # grid lies outside its clamped cell; only these points (never a
        # NaN) need the correction against the nodes
        edge = np.flatnonzero((offset < 0) | (x >= xp[1:].take(j)))
        xe = x[edge]
        je = j[edge]
        je = np.clip(je + (xe >= xp[je + 1]) - (xe < xp[je]), 0, n - 2)
        j[edge] = je
        offset[edge] = xe - xp[je]
        self.n = n
        self.flat = (np.asarray(rows) * n + j.reshape(self.shape)).reshape(-1)
        self.offset = offset
        self.widths = np.diff(xp)
        # the points off the grid read the end values of their rows: cell 0
        # starts at a row's first value and cell N_x - 2 ends at its last
        below, above = edge[xe < xp[0]], edge[xe >= xp[-1]]
        self.ends = np.concatenate([below, above])
        # their interpolated values are overwritten; a zero offset keeps a
        # flat end cell from meeting an infinite one (0 * inf)
        offset[self.ends] = 0.0
        self.end_flat = np.concatenate([self.flat[below], self.flat[above] + 1])
        self.escaped = int(np.count_nonzero((xe < xp[0]) | (xe > xp[-1])))

    def __call__(self, table):
        table = np.asarray(table, dtype=float).reshape(-1, self.n)
        slope = np.zeros_like(table)
        np.divide(np.diff(table, axis=1), self.widths, out=slope[:, :-1])
        out = slope.take(self.flat) * self.offset + table.take(self.flat)
        out[self.ends] = table.take(self.end_flat)
        return out.reshape(self.shape)


class FrozenFields:
    """Measure-coupled drift and cost fields at a batch of vertices.

    The fields reduce to per-vertex, per-time tables on the space grid, each
    of shape (n_vertices, K+1, N_x): drift coefficient (of u), constant
    cost, and quadratic cost coefficient. ``alpha`` holds the vertex
    coordinates; a scalar vertex is a batch of one.
    :func:`minimize_hamiltonian` reads every row at the grid nodes; a
    caller off the grid reads its rows through one :class:`GridLookup`.
    """

    def __init__(self, problem, alpha, x_grid, times):
        self.problem = problem
        self.alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        self.x_grid = _uniform_grid(x_grid)
        self.times = np.asarray(times, dtype=float)
        self.drift_coef = None   # (n_vertices, K+1, N_x)
        self.cost_const = None
        self.cost_quad = None

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


def brackets(plans, names, own, coupled, weights):
    """Exact brackets of the named coefficients at the points of their plans.

    ``plans`` maps each name to the plan of its coefficient at the query
    points (:meth:`~gmfg.coefficients.Poly2.plan`), and ``own`` and
    ``coupled`` are views of one
    :class:`~gmfg.coefficients.SortedClusters`. An intra coefficient (f0,
    l1, l2) is averaged over the clusters that ``own`` gives each point; a
    graphon one (f, l3, l4) over the clusters of ``coupled``, whose width
    is a multiple of the last axis m of ``weights``: each point's means,
    split into rows of m columns, are weighted by ``weights``,
    broadcastable to (rows, k, m), in one sequential sum per output: a
    point rounds the same alone as in a batch, and a column the same
    whatever k is. Returns one array per name: (n points, width of
    ``own``) for an intra coefficient, (n points x width / m, k) for a
    graphon one.
    """
    m = weights.shape[-1]
    return [plans[name].apply(own) if name in ("f0", "l1", "l2")
            else np.einsum("pw,pkw->pk", plans[name].apply(coupled).reshape(-1, m),
                           weights)
            for name in names]


# cells of one frozen_fields chunk: its (time node, vertex) columns times
# the larger of the atoms per column and the grid points. This bounds both
# the chunk's samples and the (grid point, column) planes that each
# bracket fills; more nodes run in consecutive chunks
_CHUNK_CELLS = 2**16


def frozen_fields(problem, g, alpha, ensemble, x_grid, drift_only=False):
    """Freeze the drift and cost fields at the vertices ``alpha``.

    ``alpha`` is one vertex coordinate or an array of them; every vertex is
    tabulated in one batch. At each time node every coefficient is averaged
    exactly over every vertex measure (:func:`brackets` over
    :meth:`~gmfg.measures.MeasureEnsemble.clusters`): the intra bracket reads
    the ensemble vertex nearest alpha (exact when alpha is a grid midpoint),
    and the graphon bracket weights the vertices by the section g(alpha, .)
    with midpoint-rule quadrature, so a zero section gives exactly 0. Each
    coefficient's per-point set-up on ``x_grid`` (for a clip, the roots,
    cuts and regimes; :meth:`~gmfg.coefficients.Poly2.plan`) is built once
    per call. The time nodes are bracketed in chunks of at most
    ``_CHUNK_CELLS`` cells (one node at least), a cell being a (node,
    vertex) column times the larger of its atoms and the grid points: one
    set of clusters per chunk, time-major, so each plan applies once per
    chunk, and every node gets the bits it gets alone. ``drift_only``
    skips the cost tables for propagation-only callers.
    """
    fields = FrozenFields(problem, alpha, x_grid, ensemble.times)
    x_grid = fields.x_grid
    M, K1, n_atoms = ensemble.atoms.shape
    grid = VertexGrid(M)
    alphas = fields.alpha
    v_own = grid.nearest(alphas)
    gw = grid.section_weights(g, alphas)
    p = problem.structured_parts
    # (table, intra coefficient, graphon coefficient)
    tables = [("drift_coef", "f0", "f")]
    if not drift_only:
        tables += [("cost_const", "l1", "l3"), ("cost_quad", "l2", "l4")]
    plans = {}
    for name, intra, coupled in tables:
        setattr(fields, name, np.empty((alphas.size, K1, x_grid.size)))
        plans.update({part: p[part].plan(x_grid) for part in (intra, coupled)})
    chunk = max(1, _CHUNK_CELLS // (M * max(n_atoms, x_grid.size)))
    for lo in range(0, K1, chunk):
        nodes = min(chunk, K1 - lo)
        clusters = ensemble.clusters(lo, lo + nodes)   # column t M + v
        own_view = clusters.view((np.arange(nodes)[:, None] * M + v_own).reshape(1, -1))
        shape = (x_grid.size, nodes, alphas.size)
        for name, intra, coupled in tables:
            own, mixed = brackets(plans, (intra, coupled), own_view, clusters, gw[None])
            getattr(fields, name)[:, lo:lo + nodes] = (
                own.reshape(shape) + mixed.reshape(shape)).transpose(2, 1, 0)
    return fields


def _unit_controls(fields):
    # the unclamped minimizers per unit adjoint, -c / (2 d), of every
    # (vertex, node, grid point) of the fields
    if np.any(fields.cost_quad <= 0.0):
        raise InvariantError("quadratic control-cost bracket is not positive")
    return -fields.drift_coef / (2.0 * fields.cost_quad)


def minimize_hamiltonian(fields, k, q, units=None):
    """Minimizer of q * drift + cost over the control set at the grid nodes.

    ``q`` holds adjoints on the space grid, (..., n_vertices, N_x): one
    row per vertex of the batch, leading axes for several slopes. With
    drift coefficient c and quadratic cost coefficient d of time node k,
    the minimizer is the clamp of -q c / (2 d) to the control set. The
    ratios -c / (2 d) are tabulated for every node at once, after a check
    that d > 0 at every node (InvariantError otherwise). ``units`` is that
    (n_vertices, K+1, N_x) table when the caller has it: the value sweep
    builds it once per sweep, not once per step. None builds it here.
    """
    if units is None:
        units = _unit_controls(fields)
    return theta_clamp(q * units[:, k], fields.problem.u_min, fields.problem.u_max)


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
        return np.interp(x, self.x_grid, self.values[k])

    def __call__(self, t, x):
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        k = min(max(k, 0), self.values.shape[0] - 1)
        return self.eval_index(k, x)


def policy_lipschitz(table, x_grid):
    """Largest adjacent difference quotient in x of a (..., K+1, N_x) policy
    table on ``x_grid``, over every row and time node."""
    return float(np.abs(np.diff(table, axis=-1)).max() / (x_grid[1] - x_grid[0]))


def _check_cfl(speed, dt, dx):
    # the stability bound of the value sweep and of the law's transport
    if speed * dt > dx + 1e-12:
        raise ConfigError(
            f"stability requires |drift| dt <= dx: {speed:.3g} * {dt:.3g} > {dx:.3g}")


def implicit_diffusion(sigma, dt, x_grid):
    """The implicit diffusion step (I + nu L)^-1 of the value sweep, with
    nu = sigma^2 dt / (2 dx^2) and L the second difference reflected at
    both ends (zero slope), as a function of (n, N_x) rows.

    I + nu L is diagonal in the DCT-I basis (G. Strang, SIAM Review 41(1),
    1999): one solve divides the real FFT of each row's even extension,
    2 (N_x - 1) long, by its eigenvalues. O(N_x log N_x) per row, no
    (N_x, N_x) array, and rows transform independently.
    """
    nx, dx = x_grid.size, float(x_grid[1] - x_grid[0])
    nu = sigma**2 * dt / (2.0 * dx * dx)
    lam = 1.0 + 2.0 * nu * (1.0 - np.cos(np.pi * np.arange(nx) / (nx - 1)))

    def diffuse(rhs):
        even = np.concatenate([rhs, rhs[:, -2:0:-1]], axis=1)
        return np.fft.irfft(np.fft.rfft(even) / lam, n=even.shape[1])[:, :nx]

    return diffuse


def solve_hjb(problem, g, alpha, ensemble, x_grid, fields=None):
    """Backward semi-implicit solve of the vertex value equations.

    ``alpha`` is one vertex coordinate or an array of them, and every vertex
    is swept in one batch. Sweeps from the zero terminal condition: at each
    step the Hamiltonian is minimized with an upwind one-sided difference
    chosen by drift direction (candidate minimizers from the forward and
    backward differences, kept when self-consistent), the drift and cost
    terms enter explicitly, and the diffusion is implicit with zero-slope
    boundaries (:func:`implicit_diffusion`). The sweep is row-independent:
    from the same field rows a vertex gets the same bits alone as in a
    batch, and so do the rows of :func:`frozen_fields`. Returns the value
    and the feedback tables, each (n, K+1, N_x) for n vertices (n = 1 for
    a scalar ``alpha``); the terminal value row is zero.
    """
    if fields is None:
        fields = frozen_fields(problem, g, alpha, ensemble, x_grid)
    x = np.asarray(x_grid, dtype=float)
    times = fields.times
    n, nx, K1 = fields.alpha.size, x.size, times.size
    dt = float(times[1] - times[0])
    dx = float(x[1] - x[0])
    _check_cfl(float(fields.drift_bound().max()), dt, dx)
    diffuse = implicit_diffusion(problem.sigma, dt, x)
    units = _unit_controls(fields)

    # the field tables live on x_grid, so they are read without interpolation
    V = np.zeros((n, K1, nx))
    policy = np.zeros((n, K1, nx))
    # both one-sided slopes; the forward one is 0 at the last node and the
    # backward one at the first, never written
    D = np.zeros((2, n, nx))
    Dp, Dm = D
    for k in range(K1 - 2, -1, -1):
        coef = fields.drift_coef[:, k]
        const = fields.cost_const[:, k]
        quad = fields.cost_quad[:, k]
        Vn = V[:, k + 1]
        Dp[:, :-1] = Dm[:, 1:] = np.diff(Vn, axis=1) / dx
        u_p, u_m = minimize_hamiltonian(fields, k, D, units)
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
            u_c = minimize_hamiltonian(fields, k, 0.5 * (Dp + Dm), units)
            f_c = coef * u_c
            H_c = f_c * np.where(f_c > 0, Dp, Dm) + (const + quad * u_c ** 2)
            u_m = np.where(neither, u_c, u_m)
            H_m = np.where(neither, H_c, H_m)
        u_k = np.where(use_p, u_p, u_m)
        H_k = np.where(use_p, H_p, H_m)
        rhs = Vn + dt * H_k
        V[:, k] = diffuse(rhs)
        if not np.all(np.isfinite(V[:, k])):
            raise NumericalError(f"value sweep produced non-finite values at step {k}")
        policy[:, k] = u_k
    policy[:, -1] = minimize_hamiltonian(fields, K1 - 1, np.zeros((n, nx)), units)
    return V, policy


def solve_fpk(problem, x_grid, times, mass0, drift=None):
    """Forward solve of the vertex Fokker-Planck equations on the x-grid.

    ``mass0`` holds the (n, N_x) initial node masses of n rows and
    ``drift`` their (n, K+1, N_x) nodal drift, fields.drift_coef times the
    feedback table (None: pure diffusion). Each step is m_{k+1} = D' T' m_k
    (after Y. Achdou and I. Capuzzo-Dolcetta, SIAM J. Numer. Anal. 48(3),
    2010): the upwind transport T' moves |b| dt / dx <= 1 of each node's
    mass to its downwind neighbour and none past an end node, then the
    implicit diffusion D' = (I + nu L^T)^-1 = W (I + nu L)^-1 W^-1 of
    :func:`implicit_diffusion`, with W = diag(1/2, 1, ..., 1, 1/2), since
    L = W^-1 S for a symmetric S. Both keep the total mass, and since
    I + nu L^T is an M-matrix the masses stay nonnegative; the FFT's
    rounding below zero is cut to 0. A drift that breaks |b| dt <= dx
    raises ConfigError, as the sweep does. The value sweep takes
    V_k = D(V_{k+1} + dt H_k), its two factors in the same order, so this
    step is not the adjoint of the sweep's (ROADMAP item 7). Returns the
    (n, K+1, N_x) node masses.
    """
    x = np.asarray(x_grid, dtype=float)
    dt, dx = float(times[1] - times[0]), float(x[1] - x[0])
    if drift is not None:
        _check_cfl(float(np.abs(drift).max()), dt, dx)
    diffuse = implicit_diffusion(problem.sigma, dt, x)
    masses = np.empty((mass0.shape[0], times.size, x.size))
    masses[:, 0] = mass0
    for k in range(times.size - 1):
        m = masses[:, k].copy()
        if drift is not None:
            share = np.minimum(np.abs(drift[:, k]) * (dt / dx), 1.0)
            right = np.where(drift[:, k] > 0.0, share * m, 0.0)
            left = np.where(drift[:, k] < 0.0, share * m, 0.0)
            right[:, -1] = left[:, 0] = 0.0   # no flux past the end nodes
            m -= right
            m -= left
            m[:, 1:] += right[:, :-1]
            m[:, :-1] += left[:, 1:]
        m[:, ::x.size - 1] *= 2.0   # the end nodes, through a strided view
        m = diffuse(m)
        m[:, ::x.size - 1] *= 0.5
        np.maximum(m, 0.0, out=masses[:, k + 1])
    return masses


def scaled_increments(out, sigma, dt, gen):
    """Fill slots 1..K of the start buffer ``out`` of :func:`euler_maruyama_steps`
    (slot 0 holds the caller's initial states) with sigma sqrt(dt) Z from one
    fresh draw of the generator ``gen`` (standard_normal(out=) needs a
    contiguous target), freed before the caller's next draw; returns ``out``."""
    np.multiply(sigma * math.sqrt(dt), gen.standard_normal(out[..., 1:].shape),
                out=out[..., 1:])
    return out


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


def closed_loop_steps(paths, dt, fields, policy):
    """The closed-loop Euler-Maruyama run, in place on an (n, ..., K+1) buffer.

    The feedback drift of every particle of a closed-loop propagation and
    every System C/D agent:
    row v of ``paths`` (filled as for :func:`euler_maruyama_steps`) reads
    row v of ``fields.drift_coef`` and of the (n, K+1, N_x) feedback table
    ``policy``, both through one :class:`GridLookup` per step on
    ``fields.x_grid``. A non-finite path raises NumericalError naming its
    row. Returns the escaped mass: the share of point-steps that started
    outside the space grid, where the tables are clamped.
    """
    rows = np.arange(paths.shape[0]).reshape((-1,) + (1,) * (paths.ndim - 2))
    escaped = 0

    def drift(k, x):
        nonlocal escaped
        look = GridLookup(fields.x_grid, x, rows)
        escaped += look.escaped
        return look(fields.drift_coef[:, k]) * look(policy[:, k])

    euler_maruyama_steps(paths, dt, drift)
    bad = ~np.isfinite(paths[..., -1]).reshape(paths.shape[0], -1).all(axis=1)
    if bad.any():
        raise NumericalError(f"propagation diverged at row {int(np.argmax(bad))}")
    return escaped / paths[..., 1:].size


def rollout_cost(problem, fields, policy, x0, n_paths, seed):
    """Monte-Carlo cost of running a feedback policy from a point start.

    Euler-Maruyama under the frozen fields of one vertex, whose drift and
    cost tables each step reads through one grid lookup; returns (mean,
    standard error) of the accumulated running cost over ``n_paths``
    replicas.
    """
    times = fields.times
    dt = float(times[1] - times[0])
    paths = np.empty((n_paths, times.size))
    paths[:, 0] = float(x0)
    scaled_increments(paths, problem.sigma, dt, rng.stream(seed, rng.PROPAGATE, 0))
    cost = np.zeros(n_paths)

    def drift(k, x):
        u = policy.eval_index(k, x)
        look = GridLookup(fields.x_grid, x)
        cost[:] += (look(fields.cost_const[:, k])
                    + look(fields.cost_quad[:, k]) * u ** 2) * dt
        return look(fields.drift_coef[:, k]) * u

    euler_maruyama_steps(paths, dt, drift)
    return float(cost.mean()), float(cost.std(ddof=1) / np.sqrt(n_paths))
