"""Graphons: symmetric kernels on [0,1]^2 in analytic or step form.

A graphon stands in for the limit of a sequence of dense weighted graphs;
finite graphs enter as step functions on an equal M-cell partition of [0,1].
The module provides kernel evaluation, sectional integrals against the vertex
grid, midpoint sampling of analytic kernels to step form, the worst-row
deviation between a step graphon and the sectional cell integrals of a limit
kernel, and a grid-restricted lower bound on the cut norm.
"""

import numpy as np

from . import rng
from .errors import DomainError, GridError, InvariantError, SizeError


class VertexGrid:
    """Equal partition of [0,1] into M cells with midpoint representatives."""

    def __init__(self, M):
        M = int(M)
        if M < 1:
            raise DomainError("vertex grid needs at least one cell")
        self.M = M
        self.midpoints = (np.arange(M) + 0.5) / M
        self.midpoints.setflags(write=False)

    def cell_index(self, alpha):
        """Cell containing alpha; boundary ties go to the lower-index cell."""
        a = np.asarray(alpha, dtype=float)
        idx = np.ceil(a * self.M).astype(int) - 1
        return np.clip(idx, 0, self.M - 1)

    def nearest(self, alpha):
        """Index of the midpoint nearest each coordinate; an exact tie goes
        to the lower index."""
        a = np.asarray(alpha, dtype=float)
        return np.argmin(np.abs(self.midpoints - a[..., None]), axis=-1)

    def section_weights(self, g, alpha):
        """Midpoint-rule weights g(alpha, beta_j) / M of the section of the
        graphon ``g`` at each coordinate: (..., M) for alpha of shape (...)."""
        a = np.asarray(alpha, dtype=float)
        return g.evaluate(a[..., None], self.midpoints) / self.M

    def __repr__(self):
        return f"VertexGrid(M={self.M})"


def _check_unit(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must lie in [0,1]")
    return arr


def _check_weights(values, what):
    """Raise InvariantError unless every entry of ``values`` lies in [0,1];
    a NaN fails both comparisons, so it is rejected too."""
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise InvariantError(f"{what} must be finite numbers in [0,1]")


class Graphon:
    """Symmetric kernel g on [0,1]^2 with values in [0,1].

    Supported kinds: ``constant`` (value c), ``uniform_attachment``
    (1 - max(alpha, beta)), ``product`` (p(alpha) p(beta) with p piecewise
    linear through given node values), ``table`` (bilinear interpolation of a
    symmetric node matrix), and ``step`` (constant on each cell of an equal
    MxM partition). Instances are immutable after construction.
    """

    def __init__(self, kind, *, c=None, matrix=None, profile=None, table=None):
        self.kind = kind
        self.c = None
        self.matrix = None
        self.profile = None
        self.table = None
        if kind == "constant":
            if c is None or not 0.0 <= float(c) <= 1.0:
                raise InvariantError("constant kernel needs c in [0,1]")
            self.c = float(c)
        elif kind == "uniform_attachment":
            pass
        elif kind == "product":
            p = np.asarray(profile, dtype=float)
            if p.ndim != 1 or p.size < 2:
                raise InvariantError("product kernel needs >= 2 profile values")
            _check_weights(p, "product profile values")
            self.profile = p.copy()
            self.profile.setflags(write=False)
        elif kind == "table":
            t = np.asarray(table, dtype=float)
            if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
                raise InvariantError("table kernel needs a square node matrix")
            _check_weights(t, "table values")
            if not np.allclose(t, t.T, atol=1e-12):
                raise InvariantError("table kernel must be symmetric")
            self.table = 0.5 * (t + t.T)
            self.table.setflags(write=False)
        elif kind == "step":
            m = np.asarray(matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InvariantError("step graphon needs a square matrix")
            _check_weights(m, "step weights")
            if not np.allclose(m, m.T, atol=1e-12):
                raise InvariantError("step graphon must be symmetric")
            self.matrix = m.copy()
            self.matrix.setflags(write=False)
        else:
            raise InvariantError(f"unknown graphon kind {kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls("constant", c=c)

    @classmethod
    def uniform_attachment(cls):
        return cls("uniform_attachment")

    @classmethod
    def product(cls, profile):
        return cls("product", profile=profile)

    @classmethod
    def from_table(cls, table):
        return cls("table", table=table)

    @classmethod
    def step(cls, matrix):
        return cls("step", matrix=matrix)

    # -- evaluation ----------------------------------------------------------

    @property
    def cells(self):
        """Number of cells of a step graphon, else None."""
        return None if self.matrix is None else self.matrix.shape[0]

    def evaluate(self, alpha, beta):
        """Kernel value g(alpha, beta); symmetric, in [0,1].

        Accepts scalars or broadcastable arrays. Step graphons return the
        cell value, with boundary coordinates resolved to the lower-index
        cell.
        """
        a = _check_unit(alpha, "alpha")
        b = _check_unit(beta, "beta")
        scalar = np.isscalar(alpha) and np.isscalar(beta)
        if self.kind == "constant":
            out = np.broadcast_arrays(a, b)[0] * 0.0 + self.c
        elif self.kind == "uniform_attachment":
            out = 1.0 - np.maximum(a, b)
        elif self.kind == "product":
            nodes = np.linspace(0.0, 1.0, self.profile.size)
            out = np.interp(a, nodes, self.profile) * np.interp(b, nodes, self.profile)
        elif self.kind == "table":
            out = self._bilinear(a, b)
        else:
            grid = VertexGrid(self.matrix.shape[0])
            out = self.matrix[grid.cell_index(a), grid.cell_index(b)]
        return float(out) if scalar else np.asarray(out)

    def _bilinear(self, a, b):
        n = self.table.shape[0]
        h = 1.0 / (n - 1)
        ia = np.clip((a / h).astype(int), 0, n - 2)
        ib = np.clip((b / h).astype(int), 0, n - 2)
        ta = a / h - ia
        tb = b / h - ib
        t = self.table
        return ((1 - ta) * (1 - tb) * t[ia, ib] + ta * (1 - tb) * t[ia + 1, ib]
                + (1 - ta) * tb * t[ia, ib + 1] + ta * tb * t[ia + 1, ib + 1])

    def __repr__(self):
        extra = ""
        if self.kind == "constant":
            extra = f", c={self.c}"
        elif self.kind == "step":
            extra = f", cells={self.cells}"
        return f"Graphon({self.kind!r}{extra})"


def section_integral(g, alpha, h, grid):
    """Midpoint-rule quadrature of the sectional integral of g at alpha.

    Approximates the integral over beta in [0,1] of g(alpha, beta) h(beta)
    on the vertex grid. ``h`` may be a vectorized callable or an array of
    values at the grid midpoints. Exact for step g with grid-constant h.
    """
    m = grid.midpoints
    hv = np.asarray(h(m), dtype=float) if callable(h) else np.asarray(h, dtype=float)
    if hv.shape != m.shape:
        raise DomainError("h values must match the vertex grid midpoints")
    return float(np.sum(g.evaluate(alpha, m) * hv) / grid.M)


def sample_step_graphon(g, M):
    """Step graphon whose (i, j) entry is g evaluated at cell midpoints."""
    grid = VertexGrid(M)
    m = grid.midpoints
    mat = g.evaluate(m[:, None], m[None, :])
    return Graphon.step(0.5 * (mat + mat.T))


def cell_average_step(g, M, refinement=8):
    """Step graphon of cell averages of g on the equal MxM partition.

    Each cell average uses a refinement x refinement midpoint sub-grid.
    This is the L2 projection of g onto M-cell step functions, the natural
    discretization to compare against a midpoint sample.
    """
    grid = VertexGrid(M)
    r = int(refinement)
    sub = (np.arange(r) + 0.5) / (r * M)
    pts = (grid.midpoints - 0.5 / M)[:, None] + sub[None, :]  # (M, r)
    flat = pts.reshape(-1)
    vals = g.evaluate(flat[:, None], flat[None, :])
    vals = vals.reshape(M, r, M, r)
    mat = vals.mean(axis=(1, 3))
    return Graphon.step(0.5 * (mat + mat.T))


def h11_deviation(gk, g, refinement=8):
    """Worst-row sectional deviation of a step graphon from a limit kernel.

    For a step graphon with M cells, returns

        max_i sum_j | gk_ij / M - integral over I_j of g(I_i*, beta) dbeta |

    where I_i* is the midpoint of cell i and the inner integrals use a
    midpoint rule with ``refinement`` sub-points per cell. Zero when gk
    matches the cell averages of a per-cell-constant g.
    """
    if gk.kind != "step":
        raise DomainError("gk must be a step graphon")
    M = gk.cells
    grid = VertexGrid(M)
    r = int(refinement)
    sub = (np.arange(r) + 0.5) / (r * M)
    betas = (grid.midpoints - 0.5 / M)[:, None] + sub[None, :]  # (M, r)
    flat = betas.reshape(-1)
    vals = g.evaluate(grid.midpoints[:, None], flat[None, :]).reshape(M, M, r)
    cell_ints = vals.mean(axis=2) / M  # integral of the section over each cell
    dev = np.abs(gk.matrix / M - cell_ints).sum(axis=1)
    return float(dev.max())


def _step_cell_integrals(W):
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DomainError("kernel must be a square cell matrix")
    if not np.all(np.isfinite(W)):
        raise DomainError("kernel values must be finite")
    return W / (W.shape[0] ** 2)


def _best_subset_value(cols):
    # Given column sums over a fixed row set, the optimal column set keeps
    # one sign; value of the better sign.
    pos = np.sum(np.maximum(cols, 0.0), axis=-1)
    neg = np.sum(np.maximum(-cols, 0.0), axis=-1)
    return np.maximum(pos, neg)


_CUT_EXACT_LIMIT = 16
_CUT_RESTARTS = 32
_CUT_MAX_CELLS = 512


def cut_norm_grid_bound(W, seed=0):
    """Grid-restricted lower bound on the cut norm of a step kernel.

    ``W`` is an M x M cell matrix (for example the difference of two step
    graphons). Returns the maximum over pairs (S, T) of unions of grid cells
    of |integral over S x T of W|. Exhaustive over all 2^M row subsets for
    M <= _CUT_EXACT_LIMIT, else alternating row/column maximization from
    _CUT_RESTARTS random starts, deterministic under a fixed seed. Either
    way the result is a lower bound on the true cut norm of the kernel.
    """
    A = _step_cell_integrals(W)
    M = A.shape[0]
    if M > _CUT_MAX_CELLS:
        raise SizeError(f"kernel has {M} cells, limit is {_CUT_MAX_CELLS}")
    if M <= _CUT_EXACT_LIMIT:
        total = 1 << M
        masks = np.arange(total, dtype=np.uint64)
        bits = ((masks[:, None] >> np.arange(M, dtype=np.uint64)[None, :]) & 1).astype(float)
        cols = bits @ A  # (2^M, M) column sums per row subset
        return float(_best_subset_value(cols).max())

    gen = rng.stream(seed, rng.CUT_NORM)
    best = 0.0
    # Deterministic starts first: full set and the positive/negative parts.
    starts = [np.ones(M), (A.sum(axis=1) > 0).astype(float)]
    starts += [(gen.random(M) < 0.5).astype(float) for _ in range(_CUT_RESTARTS)]
    for s in starts:
        for sign in (1.0, -1.0):
            rows = s.copy()
            val = -np.inf
            for _ in range(64):
                cols = (rows @ A) * sign
                t = (cols > 0).astype(float)
                rows_new = ((A @ t) * sign > 0).astype(float)
                new_val = sign * (rows_new @ A @ t)
                if new_val <= val + 1e-15:
                    break
                rows, val = rows_new, new_val
            if np.isfinite(val):
                best = max(best, abs(val))
    return float(best)


def step_difference(ga, gb):
    """Cell matrix of the difference between two step graphons."""
    if ga.kind != "step" or gb.kind != "step" or ga.cells != gb.cells:
        raise GridError(f"step graphons have incompatible cells: {ga.cells} vs {gb.cells}")
    return ga.matrix - gb.matrix
