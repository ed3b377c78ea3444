"""One-dimensional probability measures, ensembles, and path distances.

Measures are particle-based (atoms plus weights); the Fokker-Planck side of
the mean field game is realized through particle propagation, so exact 1-D
Wasserstein distances between atomic measures are all the metric machinery
the solver needs. Ensembles index measures by (vertex cell, time node) and
path bundles hold the per-vertex particle trajectories behind them.
"""

import numpy as np

from .artifacts import index_columns, write_csv
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

    def compress(self, n):
        """Equal-weight quantile compression to n atoms."""
        if self.atoms.size <= n:
            return self
        levels = (np.arange(n) + 0.5) / n
        return Measure1D(self.quantile(levels))

    def shift(self, delta):
        return Measure1D(self.atoms + float(delta), self.weights)

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
    from scipy.special import ndtri

    if std < 0:
        raise DomainError("std must be nonnegative")
    if std == 0:
        return dirac(mean)
    levels = (np.arange(n_atoms) + 0.5) / n_atoms
    return Measure1D(mean + std * ndtri(levels))


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
    # Both (..., R) sorted along the last axis with uniform weights.
    return np.mean(np.abs(a - b), axis=-1)


class MeasureEnsemble:
    """Measures indexed by (vertex cell, time node).

    Stored as dense atom/weight arrays of shape (M, K+1, n_atoms); uniform
    ensembles coming out of a particle propagation share one weight value.
    A time-Holder modulus for the ensemble is a diagnostic, not a
    construction-time invariant; see :func:`holder_modulus`.
    """

    def __init__(self, atoms, weights, times):
        a = np.asarray(atoms, dtype=float)
        if a.ndim != 3:
            raise GridError("ensemble atoms must have shape (M, K+1, n)")
        if not np.all(np.isfinite(a)):
            raise InvariantError("ensemble atoms must be finite")
        w = np.broadcast_to(np.asarray(weights, dtype=float), a.shape)
        sums = w.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise InvariantError("every ensemble entry must be normalized")
        self.atoms = a
        self.weights = w
        self.times = np.asarray(times, dtype=float)
        if self.times.shape != (a.shape[1],):
            raise GridError("times must match the ensemble time axis")
        self._sorted = None

    @classmethod
    def from_measures(cls, rows, times):
        """Build from a list (vertices) of lists (times) of Measure1D."""
        n = max(len(m) for row in rows for m in row)
        M, K1 = len(rows), len(rows[0])
        atoms = np.zeros((M, K1, n))
        weights = np.zeros((M, K1, n))
        for v, row in enumerate(rows):
            if len(row) != K1:
                raise GridError("ragged ensemble rows")
            for k, m in enumerate(row):
                atoms[v, k, : len(m)] = m.atoms
                atoms[v, k, len(m):] = m.atoms[-1]
                weights[v, k, : len(m)] = m.weights
        return cls(atoms, weights, times)

    @property
    def n_vertices(self):
        return self.atoms.shape[0]

    @property
    def n_times(self):
        return self.atoms.shape[1]

    def get(self, v, k):
        return Measure1D(self.atoms[v, k], self.weights[v, k])

    def sorted_atoms(self):
        """Atoms sorted along the particle axis (uniform ensembles only)."""
        if self._sorted is None:
            self._sorted = np.sort(self.atoms, axis=-1)
        return self._sorted

    def is_uniform(self):
        return bool(np.all(self.weights == self.weights[..., :1]))

    def shift(self, delta):
        return MeasureEnsemble(self.atoms + float(delta), self.weights, self.times)

    def compress(self, n):
        """Quantile-compress every entry to n atoms."""
        if self.atoms.shape[2] <= n and self.is_uniform():
            return self
        levels = (np.arange(n) + 0.5) / n
        if self.is_uniform():
            s = self.sorted_atoms()
            idx = np.minimum((levels * self.atoms.shape[2]).astype(int), self.atoms.shape[2] - 1)
            return MeasureEnsemble(s[:, :, idx], np.full((1, 1, n), 1.0 / n), self.times)
        out = np.empty(self.atoms.shape[:2] + (n,))
        for v in range(self.n_vertices):
            for k in range(self.n_times):
                out[v, k] = self.get(v, k).quantile(levels)
        return MeasureEnsemble(out, np.full((1, 1, n), 1.0 / n), self.times)

    def to_csv(self, path):
        """Rows of (vertex_index, time_index, atom, weight)."""
        v, k, _, atom, weight = index_columns(self.atoms, self.weights)
        write_csv(path, ["vertex_index", "time_index", "atom", "weight"],
                  [v, k, atom, weight])


def ensemble_w1_sup(e1, e2):
    """Sup over (vertex, time) of W1 between matching ensemble entries."""
    if e1.atoms.shape[:2] != e2.atoms.shape[:2]:
        raise GridError("ensembles live on different grids")
    if (e1.is_uniform() and e2.is_uniform()
            and e1.atoms.shape[2] == e2.atoms.shape[2]):
        d = _w1_sorted_equal(e1.sorted_atoms(), e2.sorted_atoms())
        return float(d.max())
    best = 0.0
    for v in range(e1.n_vertices):
        for k in range(e1.n_times):
            best = max(best, w1(e1.get(v, k), e2.get(v, k)))
    return best


class PathBundle:
    """Per-vertex particle trajectories on a shared time grid.

    ``paths`` has shape (M, R, K+1); the replica count R is identical across
    vertices by construction. ``seed_record`` documents the streams used.
    ``escaped_mass`` is the share of particle-steps a grid propagation found
    outside its space grid (None when no grid was used).
    """

    def __init__(self, paths, times, seed_record=None, escaped_mass=None):
        p = np.asarray(paths, dtype=float)
        if p.ndim != 3:
            raise GridError("paths must have shape (M, R, K+1)")
        if not np.all(np.isfinite(p)):
            raise InvariantError("trajectories must be finite")
        self.paths = p
        self.times = np.asarray(times, dtype=float)
        if self.times.shape != (p.shape[2],):
            raise GridError("times must match the path time axis")
        self.seed_record = dict(seed_record or {})
        self.escaped_mass = escaped_mass

    @property
    def n_vertices(self):
        return self.paths.shape[0]

    def vertex_slice(self, v):
        return self.paths[v]

    def to_csv(self, path, vertex):
        """Rows of (replica, time_index, value) for one vertex slice."""
        write_csv(path, ["replica", "time_index", "value"],
                  index_columns(self.paths[vertex]))


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
    """Max over vertex cells of the coupled path distance."""
    if m1.paths.shape != m2.paths.shape:
        raise GridError("bundles must share (M, R, K+1)")
    sup = np.abs(m1.paths - m2.paths).max(axis=2)
    return float(np.minimum(sup, 1.0).mean(axis=1).max())


def marginals(bundle):
    """Empirical measure of the particles at every (vertex, time)."""
    atoms = np.swapaxes(bundle.paths, 1, 2)  # (M, K+1, R)
    n = atoms.shape[2]
    return MeasureEnsemble(atoms, np.full((1, 1, n), 1.0 / n), bundle.times)


def _default_test_functions(clamp=10.0):
    fns = [lambda x: np.clip(x, -clamp, clamp)]
    for k in (1.0, 2.0, 4.0):
        fns.append(lambda x, k=k: np.sin(k * x))
    return fns


def holder_modulus(ensemble, test_fns=None, lags=(1, 2)):
    """Fit a time-Holder modulus (C_h, eta) of an ensemble, diagnostically.

    For each test function, lag, and time index, takes the sup over vertices
    of the mean-integral increment between the two time nodes, then fits
    log-increment against log time-gap by least squares. Adjacent pairs and
    skip pairs (lags 1 and 2 by default) supply the regression points. A
    degenerate fit (all increments zero) returns (0, 1) by convention.
    """
    if ensemble.n_times < 3:
        raise GridError("holder fit needs at least 3 time points")
    fns = test_fns if test_fns is not None else _default_test_functions()
    dt = float(ensemble.times[1] - ensemble.times[0])
    xs, ys = [], []
    for fn in fns:
        vals = np.sum(fn(ensemble.atoms) * ensemble.weights, axis=2)  # (M, K+1)
        for lag in lags:
            inc = np.abs(vals[:, lag:] - vals[:, :-lag]).max(axis=0)
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
    best = 0.0
    if ensemble.is_uniform():
        s = ensemble.sorted_atoms()
        if ensemble.n_times > 1:
            best = max(best, float(_w1_sorted_equal(s[:, 1:], s[:, :-1]).max()))
        if ensemble.n_vertices > 1:
            best = max(best, float(_w1_sorted_equal(s[1:], s[:-1]).max()))
        return best
    for v in range(ensemble.n_vertices):
        for k in range(ensemble.n_times):
            if k + 1 < ensemble.n_times:
                best = max(best, w1(ensemble.get(v, k), ensemble.get(v, k + 1)))
            if v + 1 < ensemble.n_vertices:
                best = max(best, w1(ensemble.get(v, k), ensemble.get(v + 1, k)))
    return best
