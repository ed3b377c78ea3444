"""One-dimensional probability measures, ensembles, node laws, and path distances.

Measures are atomic (atoms plus weights), so exact 1-D Wasserstein
distances between them are all the metric machinery the package needs. A
:class:`Measure1D` takes any weights, as the ``atoms`` initial law of a
scenario does. The solver keeps each vertex law as node masses on the
x-grid, where the Fokker-Planck side of the game is solved
(:func:`node_masses` to start, :func:`node_quantiles` for its atoms,
:func:`node_w1_sup` for its exact distances). Ensembles index
equal-weight measures by (vertex cell, time node), every entry with the
same number of atoms, and hand the vertex measures of one time node to the
exact coefficient means as equal clusters; path bundles hold per-vertex
particle trajectories, whose marginals are ensembles too.
"""

from statistics import NormalDist

import numpy as np

from .coefficients import SortedClusters
from .errors import DomainError, GridError, InvariantError

_WEIGHT_TOL = 1e-12


class Measure1D:
    """Atomic probability measure on the line with finite mean."""

    def __init__(self, atoms, weights=None):
        a = np.asarray(atoms, dtype=float).reshape(-1)
        if a.size == 0:
            raise DomainError("measure needs at least one atom")
        if not np.all(np.isfinite(a)):
            raise InvariantError("atoms must be finite")
        if weights is None:
            w = np.full(a.size, 1.0 / a.size)
        else:
            w = np.asarray(weights, dtype=float).reshape(-1)
            if w.shape != a.shape:
                raise InvariantError("weights must match atoms")
            if not np.all(np.isfinite(w)):
                raise InvariantError("weights must be finite")
            if np.any(w < 0.0):
                raise InvariantError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > _WEIGHT_TOL:
                raise InvariantError(f"weights sum to {w.sum():.17g}, not 1")
        order = np.argsort(a, kind="stable")
        self.atoms = a[order]
        self.weights = w[order]
        self.atoms.setflags(write=False)
        self.weights.setflags(write=False)

    def mean(self):
        return float(self.atoms @ self.weights)

    def quantile(self, q):
        """Left-continuous inverse CDF at levels q."""
        q = np.asarray(q, dtype=float)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, np.clip(q, 0.0, 1.0), side="left")
        return self.atoms[np.minimum(idx, self.atoms.size - 1)]

    def __len__(self):
        return self.atoms.size

    def __repr__(self):
        return f"Measure1D({self.atoms.size} atoms, mean={self.mean():.4g})"


def dirac(x):
    return Measure1D([float(x)])


def empirical(samples):
    """Uniformly weighted empirical measure of a nonempty sample array."""
    s = np.asarray(samples, dtype=float).reshape(-1)
    if s.size == 0:
        raise DomainError("empirical measure needs at least one sample")
    return Measure1D(s)


def normal_quantile_measure(mean, std, n_atoms=129):
    """Quantile-midpoint discretization of a normal law."""
    if std < 0:
        raise DomainError("std must be nonnegative")
    if std == 0:
        return dirac(mean)
    levels = (np.arange(n_atoms) + 0.5) / n_atoms
    inv_cdf = NormalDist().inv_cdf   # Wichura's AS241
    z = np.array([inv_cdf(p) for p in levels.tolist()])
    return Measure1D(mean + std * z)


def w1(mu, nu):
    """Exact 1-D Wasserstein-1 distance between atomic measures.

    Merged sweep over the pooled atoms: the distance is the integral of the
    absolute CDF gap. Symmetric, and a metric on atomic measures.
    """
    xs = np.concatenate([mu.atoms, nu.atoms])
    signed = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    gap = np.cumsum(signed[order])[:-1]
    return float(np.abs(gap) @ np.diff(xs))


def _w1_sorted_equal(a, b):
    # Both (..., R) sorted along the last axis, uniform weights; |a - b| in place.
    d = a - b
    return np.mean(np.abs(d, out=d), axis=-1)


class MeasureEnsemble:
    """Equal-weight measures indexed by (vertex cell, time node).

    Stored as one dense (M, K+1, n) atom array, every entry n atoms of
    weight 1/n. The ensemble sorts each entry in place and owns its atoms,
    so each time node's vertex measures are contiguous rows: the cluster
    moments then round alike whatever the layout of the input. The
    constructor copies its input into C order and never aliases it;
    :meth:`adopt` takes a C-order buffer over without a copy.
    A time-Holder modulus of the paths behind an ensemble is a
    diagnostic, not a construction-time invariant; see
    :func:`holder_modulus`.
    """

    def __init__(self, atoms, times):
        self._own(np.array(atoms, dtype=float, order="C"), times)

    @classmethod
    def adopt(cls, atoms, times):
        """The ensemble of a writable C-contiguous (M, K+1, n) float array,
        which it sorts in place and owns: a write to ``atoms`` afterwards
        changes the ensemble. Equal to ``MeasureEnsemble(atoms.copy(),
        times)`` bit for bit, without the copy."""
        if not (isinstance(atoms, np.ndarray) and atoms.dtype == float
                and atoms.flags.c_contiguous and atoms.flags.writeable):
            raise GridError("adopted atoms must be a writable C-order float array")
        ens = cls.__new__(cls)
        ens._own(atoms, times)
        return ens

    def _own(self, a, times):
        if a.ndim != 3:
            raise GridError("ensemble atoms must have shape (M, K+1, n)")
        if not np.all(np.isfinite(a)):
            raise InvariantError("ensemble atoms must be finite")
        self.times = np.asarray(times, dtype=float)
        if self.times.shape != (a.shape[1],):
            raise GridError("times must match the ensemble time axis")
        a.sort(axis=-1)
        self.atoms = a

    @property
    def weights(self):
        """The weight 1/n of every atom, a read-only (M, K+1, n) broadcast."""
        return np.broadcast_to(1.0 / self.atoms.shape[2], self.atoms.shape)

    @property
    def n_vertices(self):
        return self.atoms.shape[0]

    @property
    def n_times(self):
        return self.atoms.shape[1]

    def get(self, v, k):
        return Measure1D(self.atoms[v, k])

    def clusters(self, k, stop=None):
        """The vertex measures at time node k, or at the nodes k .. stop-1,
        as clusters for exact coefficient means, time-major: column t M + v
        is vertex v at node k + t. The atoms are sorted already, so the
        clusters are not sorted again."""
        nodes = np.swapaxes(self.atoms[:, k:k + 1 if stop is None else stop], 0, 1)
        return SortedClusters.from_sorted(nodes.reshape(-1, self.atoms.shape[2]))

    def shift(self, delta):
        return MeasureEnsemble(self.atoms + float(delta), self.times)

    def compress(self, n):
        """Quantile-compress every entry to n atoms."""
        size = self.atoms.shape[2]
        if size <= n:
            return self
        levels = (np.arange(n) + 0.5) / n
        idx = np.minimum((levels * size).astype(int), size - 1)
        return MeasureEnsemble(self.atoms[:, :, idx], self.times)


def node_masses(law, x_grid):
    """The node masses on ``x_grid`` of an atomic ``law``: each atom's weight
    split linearly between the two nodes of its cell, so the mean is kept.
    An atom outside the grid raises DomainError."""
    x = np.asarray(x_grid, dtype=float)
    a = law.atoms
    if a[0] < x[0] or a[-1] > x[-1]:
        raise DomainError(f"initial atoms span [{a[0]:.6g}, {a[-1]:.6g}], outside "
                          f"the space grid [{x[0]:.6g}, {x[-1]:.6g}]")
    j = np.minimum(np.searchsorted(x, a, side="right") - 1, x.size - 2)
    theta = (a - x[j]) / (x[j + 1] - x[j])
    return (np.bincount(j, law.weights * (1.0 - theta), minlength=x.size)
            + np.bincount(j + 1, law.weights * theta, minlength=x.size))


def node_quantiles(masses, x_grid, n):
    """(..., n) quantile atoms of the node laws ``masses`` (..., N_x).

    Node j's mass is spread evenly over its cell, [x_j - dx/2, x_j + dx/2]
    cut to the grid (half cells at the ends, the trapezoid weights of the
    diffusion step), so each law's CDF is piecewise linear; the atoms are
    its values at the levels (i + 1/2) / n, sorted in each row. A level
    falls in the node whose cumulative mass first reaches it, and each
    node's count of levels is read from its cumulative mass, so no row is
    searched or sorted. The masses must be nonnegative.
    """
    x = np.asarray(x_grid, dtype=float)
    shape, nx = masses.shape[:-1], x.size
    m = masses.reshape(-1, nx)
    cum = np.cumsum(m, axis=1)
    # levels (i + 1/2) / n at or below each node's cumulative mass
    reached = np.minimum(np.floor(cum * n + 0.5), n)
    reached[:, -1] = n
    counts = np.diff(reached, axis=1, prepend=0.0).astype(np.intp).ravel()
    flat = np.repeat(np.arange(m.size), counts)    # (row, node) of each level
    node = flat % nx
    below = np.where(node > 0, cum.ravel()[flat - 1], 0.0)
    levels = np.tile((np.arange(n) + 0.5) / n, m.shape[0])
    share = np.clip((levels - below) / m.ravel()[flat], 0.0, 1.0)
    half = 0.5 * (x[1] - x[0])
    lo = np.maximum(x - half, x[0])
    hi = np.minimum(x + half, x[-1])
    return (lo[node] + share * (hi[node] - lo[node])).reshape(shape + (n,))


def node_w1_sup(m1, m2, dx):
    """Sup over the leading entries of the exact W1 between node laws of
    equal mass on a grid of spacing ``dx``: dx times the sum of |F1 - F2|
    over the nodes but the last, F the cumulative masses."""
    gap = np.cumsum(m1 - m2, axis=-1)[..., :-1]
    return float(dx * np.abs(gap).sum(axis=-1).max())


def ensemble_w1_sup(e1, e2):
    """Sup over (vertex, time) of W1 between matching ensemble entries.

    Taken one vertex at a time, so the |a - b| temporary is one vertex's
    (K+1, n) block; each row's mean is the same contiguous reduction as
    over the whole array, so the value is too.
    """
    if e1.atoms.shape != e2.atoms.shape:
        raise GridError("ensembles differ in grid or in atoms per entry")
    return max(float(_w1_sorted_equal(a, b).max()) for a, b in zip(e1.atoms, e2.atoms))


class PathBundle:
    """Per-vertex particle trajectories on a shared time grid.

    ``paths`` has shape (M, R, K+1); the replica count R is identical across
    vertices by construction. A solver bundle keeps its memory time-major,
    (M, K+1, R), behind that view (see ``solver.propagate_closed_loop``),
    so one time node of a vertex's particles is one contiguous row.
    ``escaped_mass`` is the share of particle-steps a grid propagation found
    outside its space grid (None when no grid was used).
    """

    def __init__(self, paths, times, escaped_mass=None):
        p = np.asarray(paths, dtype=float)
        if p.ndim != 3:
            raise GridError("paths must have shape (M, R, K+1)")
        if not np.all(np.isfinite(p)):
            raise InvariantError("trajectories must be finite")
        self.paths = p
        self.times = np.asarray(times, dtype=float)
        if self.times.shape != (p.shape[2],):
            raise GridError("times must match the path time axis")
        self.escaped_mass = escaped_mass


def path_distance_DT(b1, b2):
    """Empirical coupling estimate of the path-space Wasserstein distance.

    ``b1`` and ``b2`` are vertex slices of shape (R, K+1) generated under
    common random numbers. Returns the average over replicas of the
    truncated sup-norm gap min(sup_t |x1 - x2|, 1), which the synchronous
    coupling realizes and which upper-bounds the true distance.
    """
    a = np.asarray(b1, dtype=float)
    b = np.asarray(b2, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise GridError("vertex slices must share shape (R, K+1)")
    sup = np.abs(a - b).max(axis=1)
    return float(np.minimum(sup, 1.0).mean())


def ensemble_distance(m1, m2):
    """Max over vertex cells of the coupled path distance
    (:func:`path_distance_DT`)."""
    if m1.paths.shape != m2.paths.shape:
        raise GridError("bundles must share (M, R, K+1)")
    return max(path_distance_DT(a, b) for a, b in zip(m1.paths, m2.paths))


def marginals(bundle):
    """Empirical measure of the particles at every (vertex, time).

    The ensemble sorts a copy of the particles, so ``bundle.paths`` keeps
    the particle order that coupled path distances read.
    """
    return MeasureEnsemble(np.swapaxes(bundle.paths, 1, 2), bundle.times)


_HOLDER_LAGS = (1, 2)


def holder_modulus(bundle):
    """Fit a time-Holder modulus (C_h, eta) of a path bundle, diagnostically.

    For each lag (1 and 2 time nodes) and each start node t, takes the sup
    over vertices of the mean |X_{t+h} - X_t| over the bundle's paths, then
    fits log-increment against log time-gap by least squares. The paths
    couple each time marginal with the next synchronously, so the mean
    increment bounds W1(mu_{t+h}, mu_t): the fit measures how the flow
    moves, which a diffusion does like sigma sqrt(h) (eta near 1/2), and
    not how many paths estimate it. A degenerate fit (all increments zero)
    returns (0, 1) by convention.
    """
    if bundle.times.size < 3:
        raise GridError("holder fit needs at least 3 time points")
    dt = float(bundle.times[1] - bundle.times[0])
    xs, ys = [], []
    for lag in _HOLDER_LAGS:
        inc = np.zeros(bundle.times.size - lag)
        for x in bundle.paths:   # one vertex's (R, K+1) paths at a time
            np.maximum(inc, np.abs(x[:, lag:] - x[:, :-lag]).mean(axis=0), out=inc)
        keep = inc > 0.0
        xs.extend([np.log(lag * dt)] * int(keep.sum()))
        ys.extend(np.log(inc[keep]))
    if not xs or np.ptp(xs) == 0.0:
        return 0.0, 1.0
    slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return float(np.exp(intercept)), float(slope)


def w1_joint_continuity_scan(ensemble):
    """Max W1 between adjacent (vertex, time) neighbors of an ensemble.

    Shrinks under grid refinement for ensembles solving the mean field
    system; a large value flags a discontinuity in vertex or time.
    """
    s = ensemble.atoms
    best = 0.0
    if ensemble.n_times > 1:
        best = max(best, float(_w1_sorted_equal(s[:, 1:], s[:, :-1]).max()))
    if ensemble.n_vertices > 1:
        best = max(best, float(_w1_sorted_equal(s[1:], s[:-1]).max()))
    return best
