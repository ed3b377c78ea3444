"""Coefficient surfaces of (x, y) and their exact cluster means.

Every coefficient a scenario can express is a constant or a quadratic in
(x, y) with an optional clip. Both are small value objects: calling one on
broadcastable arrays evaluates the surface pointwise, and ``cluster_means``
integrates it exactly against the empirical measure of each cluster of a
finite population.

For a fixed x a quadratic is c y^2 + b y + a, so its mean over a cluster
needs only the cluster's sums of 1, y and y^2. A clip to [lo, hi] splits
the y-line at the roots of the quadratic at lo and at hi; between two
consecutive roots the clip regime is fixed, so each segment's sum comes
from prefix sums of the cluster's sorted samples. The cost per query point
is O(M log n) for M clusters of n samples, instead of one evaluation per
sample.
"""

import copy
from dataclasses import dataclass

import numpy as np


def _shape(x, y):
    return np.broadcast_shapes(np.shape(x), np.shape(y))


class SortedClusters:
    """Sorted samples of each cluster with prefix sums of y and y^2.

    ``values`` lists the samples cluster by cluster: the first
    ``sizes[0]`` belong to cluster 0, the next ``sizes[1]`` to cluster 1,
    and so on. Rows are padded to the largest cluster with +inf samples
    that add nothing to the sums.

    ``columns`` names the clusters each query point is integrated against:
    every cluster (shape (1, M)) by default, or one cluster per point
    (shape (n, 1)) in the view that :meth:`own` returns.
    """

    def __init__(self, values, sizes):
        sizes = np.asarray(sizes, dtype=int)
        valid = np.arange(sizes.max())[None, :] < sizes[:, None]
        ys = np.full(valid.shape, np.inf)
        ys[valid] = values
        ys.sort(axis=1)
        y0 = np.where(valid, ys, 0.0)
        zero = np.zeros((sizes.size, 1))
        self.sizes = sizes
        self.sorted = ys
        self.p1 = np.concatenate([zero, np.cumsum(y0, axis=1)], axis=1)
        self.p2 = np.concatenate([zero, np.cumsum(y0 * y0, axis=1)], axis=1)
        self.columns = np.arange(sizes.size)[None, :]

    def own(self, which):
        """View in which query point i sees only cluster ``which[i]``."""
        view = copy.copy(self)
        view.columns = np.asarray(which, dtype=int)[:, None]
        return view

    @property
    def width(self):
        """Number of result columns per query point."""
        return int(self.columns.shape[1])

    def counts(self):
        """Sample count of each column's cluster, broadcastable to (n, width)."""
        return self.sizes[self.columns]

    def means(self):
        """Means of y and of y^2 per column, broadcastable to (n, width)."""
        n = self.counts()
        return self.p1[self.columns, -1] / n, self.p2[self.columns, -1] / n

    def segment_sums(self, edges):
        """Sums of 1, y and y^2 over each column's samples between edges.

        ``edges`` is (n, E), sorted along each row; the result is three
        (n, width, E-1) arrays, segment j holding the samples y with
        edges[:, j] <= y < edges[:, j+1].
        """
        n, E = edges.shape
        rows = np.broadcast_to(self.columns, (n, self.width))
        pos = np.empty(rows.shape + (E,), dtype=np.intp)
        for l in range(self.sizes.size):
            hit = rows == l
            pos[hit] = np.searchsorted(self.sorted[l], edges[hit.nonzero()[0]],
                                       side="left")
        rows = rows[:, :, None]
        return (np.diff(pos, axis=2), np.diff(self.p1[rows, pos], axis=2),
                np.diff(self.p2[rows, pos], axis=2))


@dataclass
class Constant:
    """The coefficient surface c."""

    c: float

    def __post_init__(self):
        self.c = float(self.c)

    def __call__(self, x, y):
        return np.full(_shape(x, y), self.c)

    def cluster_means(self, x, clusters):
        """(len(x), width) means over each column's cluster samples of y."""
        return np.full((np.size(x), clusters.width), self.c)


@dataclass
class Poly2:
    """const + x X + y Y + xx X^2 + xy X Y + yy Y^2, optionally clipped."""

    const: float = 0.0
    x: float = 0.0
    y: float = 0.0
    xx: float = 0.0
    xy: float = 0.0
    yy: float = 0.0
    clip: tuple | None = None

    def __post_init__(self):
        for name in ("const", "x", "y", "xx", "xy", "yy"):
            setattr(self, name, float(getattr(self, name)))
        if self.clip is not None:
            self.clip = (float(self.clip[0]), float(self.clip[1]))

    def __call__(self, x, y):
        out = (self.const + self.x * x + self.y * y + self.xx * x**2
               + self.xy * x * y + self.yy * y**2)
        out = np.broadcast_to(out, _shape(x, y))
        if self.clip is not None:
            out = np.clip(out, self.clip[0], self.clip[1])
        return out

    def cluster_means(self, x, clusters):
        """(len(x), width) exact means over each column's cluster samples.

        ``width`` is M, one column per cluster, or 1 for the view of
        :meth:`SortedClusters.own`.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a = (self.const + self.x * x + self.xx * x**2)[:, None]   # coef of 1
        b = (self.y + self.xy * x)[:, None]                        # coef of y
        c = self.yy                                                # coef of y^2
        if self.clip is None:
            m1, m2 = clusters.means()
            return a + b * m1 + c * m2
        lo, hi = self.clip
        n = x.size
        edges = np.concatenate([np.full((n, 1), -np.inf), self._roots(a, b, lo),
                                self._roots(a, b, hi), np.full((n, 1), np.inf)],
                               axis=1)
        edges.sort(axis=1)
        # The clip regime is fixed between consecutive roots; read it at a
        # point strictly inside each segment, never at a root.
        left, right = edges[:, :-1], edges[:, 1:]
        with np.errstate(invalid="ignore", over="ignore"):
            probe = np.where(np.isfinite(left) & np.isfinite(right),
                             0.5 * (left + right),
                             np.where(np.isfinite(right), right - 1.0 - np.abs(right),
                                      np.where(np.isfinite(left),
                                               left + 1.0 + np.abs(left), 0.0)))
            g = a + probe * (b + c * probe)
        n0, s1, s2 = clusters.segment_sums(edges)
        inside = a[:, :, None] * n0 + b[:, :, None] * s1 + c * s2
        level = np.where(g < lo, lo, hi)[:, None, :] * n0
        mid = ((g >= lo) & (g <= hi))[:, None, :]
        return np.where(mid, inside, level).sum(axis=2) / clusters.counts()

    def _roots(self, a, b, level):
        """(n, 2) real roots in y of c y^2 + b y + a = level, +inf if absent."""
        k = a - level
        c = self.yy
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if c == 0.0:
                roots = np.concatenate([-k / b, np.full_like(k, np.inf)], axis=1)
            else:
                disc = b * b - 4.0 * c * k
                q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
                roots = np.concatenate([q / c, k / q], axis=1)
                roots[(disc < 0.0)[:, 0]] = np.inf
        return np.where(np.isfinite(roots), roots, np.inf)
