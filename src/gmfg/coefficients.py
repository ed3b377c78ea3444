"""Coefficient surfaces of (x, y) and their exact means over clusters.

Every coefficient a scenario can express is a constant or a quadratic in
(x, y) with an optional clip. Both are small value objects: calling one on
broadcastable arrays evaluates the surface pointwise, and its plan
integrates it exactly against the samples of each cluster, be the clusters
the equal agent groups of a finite population or the equal-weight vertex
measures of an ensemble at some time nodes, for every bracket of
:func:`~gmfg.control.brackets`. Every cluster holds the same number n of
samples, each of weight 1/n.

For a fixed x a quadratic is c y^2 + b y + a, so its mean over a cluster
needs only the cluster's sums of y and y^2. A clip to [lo, hi]
cuts the y-line at the real roots of the quadratic at lo and at hi: one
cut per level when c == 0, two when c != 0. Between consecutive cuts the
clip regime is fixed, so each segment's sum comes from prefix sums of the
cluster's sorted samples. The ends of the line are implicit, at positions
0 and n of every cluster, so only the E cuts are searched: the cost per
query point is O(E M log n) for M clusters of n samples, with E = 2 for a
clip linear in y and 4 otherwise, instead of one evaluation per sample.

The moments and the prefix sums are built on first use, one power at a
time: a segment's count is the difference of its search positions, a clip
linear in y reads the prefix sums of y alone, and only a clipped
coefficient quadratic in y builds those of y^2.

A mean runs in two steps. The plan (:meth:`Poly2.plan`) is the
set-up that depends only on the query points: each point's coefficients
of 1 and y and, for a clip, its sorted cuts and each segment's regime. It
is built once per (coefficient, points). The apply step
(:meth:`Poly2Plan.apply`) runs once per :class:`SortedClusters`: the E
searches per (point, cluster) (:meth:`SortedClusters.positions`), then a
walk over the E+1 segments, one (points, columns) plane at a time, that
adds each segment's sum into one running total; no (points, columns,
E+1) table is built. A caller with fixed points and many sets of
clusters, such as the chunks of time nodes of
:func:`~gmfg.control.frozen_fields` on one x-grid, pays the set-up once;
callers whose points move, such as the population stacks, plan at every
step. Points that read their own clusters (a view with one row of columns
per point) are searched in one pass, and only where a search can tell
something: a cut at or below a cluster's least sample sits at position 0
and one above its greatest at n, so only the (point, cluster) pairs with a
cut strictly inside the cluster's range are gathered into cluster order,
searched once per cluster on their contiguous slice and scattered back.
"""

import copy
from dataclasses import dataclass

import numpy as np


def _shape(x, y):
    return np.broadcast_shapes(np.shape(x), np.shape(y))


class SortedClusters:
    """Equal-weight samples of M clusters: their moments and sorted prefix
    sums, each built on first use.

    ``values`` is (M, n), one row of n samples per cluster, each sample of
    weight 1/n. Nothing is computed when the clusters are built: the sums
    of y and y^2 per cluster (:attr:`s1`, :attr:`s2`) are taken when
    :meth:`means` first reads them, and the sorted rows and each power's
    :meth:`prefix` sums when a clipped coefficient first asks for that
    power. So a coefficient without a clip never sorts, a clipped one
    never reads the moments, and the y^2 prefix sums are built only for a
    clipped coefficient quadratic in y. Rows that are
    sorted already (:meth:`from_sorted`) are not sorted again.

    ``columns`` names the clusters each query point is integrated against,
    broadcastable to (n points, width): every cluster (shape (1, M)) by
    default, or any per-point choice in a :meth:`view`, such as the own
    cluster of each point (shape (n, 1)) or the clusters of its row of a
    stack (shape (n, M_row)).
    """

    def __init__(self, values):
        y = self.values = np.asarray(values, dtype=float)
        self.size = y.shape[1]
        self.columns = np.arange(y.shape[0])[None, :]
        self._is_sorted = False
        self._built = {}   # shared with the views

    @classmethod
    def from_sorted(cls, values):
        """Clusters whose rows are sorted ascending already: the prefix sums
        are built on the rows as given."""
        clusters = cls(values)
        clusters._is_sorted = True
        return clusters

    def view(self, columns):
        """View in which query point i sees the clusters ``columns[i]``.

        ``columns`` is broadcastable to (n points, width); the view shares
        the moments and the sorted prefix sums of this object, built before
        or after it.
        """
        view = copy.copy(self)
        view.columns = np.asarray(columns, dtype=int)
        return view

    def _once(self, key, build):
        built = self._built
        if key not in built:
            built[key] = build()
        return built[key]

    @property
    def width(self):
        """Number of result columns per query point."""
        return int(self.columns.shape[1])

    @property
    def s1(self):
        """(M,) sums of y per cluster."""
        return self._once("s1", lambda: self.values.sum(axis=1))

    @property
    def s2(self):
        """(M,) sums of y^2 per cluster."""
        return self._once("s2", lambda: np.einsum("ij,ij->i", self.values, self.values))

    def means(self):
        """Means of y and of y^2 per column, broadcastable to (n, width)."""
        return self.s1[self.columns] / self.size, self.s2[self.columns] / self.size

    def sorted_rows(self):
        """The (M, n) samples, each row sorted ascending."""
        return self._once("sorted", lambda: self.values if self._is_sorted
                          else np.sort(self.values, axis=1))

    def prefix(self, power):
        """(M, n+1) prefix sums of y**power (1 or 2) along the sorted rows,
        each row starting at 0."""
        def build():
            y = self.sorted_rows()
            sums = np.empty((y.shape[0], y.shape[1] + 1))
            sums[:, 0] = 0.0
            np.cumsum(y if power == 1 else y * y, axis=1, out=sums[:, 1:])
            return sums
        return self._once(("prefix", power), build)

    def positions(self, cuts):
        """(E, n, width) search positions of the sorted ``cuts`` (n, E) in
        each column's sorted samples: plane e holds, for each (point,
        column) pair, the number of that column's samples below cut e. The
        ends of the y-line, positions 0 and the row length, are implicit.

        When every point reads the same columns (one row of ``columns``),
        each column's cluster is searched with one call for all the cuts,
        and plane e is stored as one contiguous (width, n) block. Otherwise
        each cut is first compared with its column's least and greatest
        sample: at or below the least it sits at 0, above the greatest at
        the row length. The (point, column) pairs with a cut strictly
        inside that range are then sorted by cluster: one gather puts their
        cuts in cluster order, each cluster's samples are searched with one
        call on its contiguous slice of them, and one scatter puts the
        positions back in pair order.
        """
        y = self.sorted_rows()
        n, E = cuts.shape
        width = self.width
        if self.columns.shape[0] == 1:
            pos = np.empty((E, width, n), dtype=np.intp)
            keys = cuts.T
            # along a grid each cut's keys ascend, and the search starts
            # each key where the last one ended
            for j, l in enumerate(self.columns[0].tolist()):
                pos[:, j] = y[l].searchsorted(keys, side="left")
            return pos.transpose(0, 2, 1)
        columns = np.broadcast_to(self.columns, (n, width))
        keys = cuts.T[:, :, None]   # (E, n, 1)
        below = keys <= y[:, 0][columns]
        pos = np.where(below, 0, self.size)
        pairs = np.flatnonzero((~below & (keys <= y[:, -1][columns])).any(axis=0))
        if pairs.size:
            flat = columns.ravel()[pairs]
            order = np.argsort(flat, kind="stable")
            pairs = pairs[order]
            bounds = np.searchsorted(flat[order], np.arange(y.shape[0] + 1)).tolist()
            keys = cuts[pairs // width]   # (pairs, E), in cluster order
            found = np.empty(keys.shape, dtype=np.intp)
            for l, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                if hi > lo:
                    found[lo:hi] = y[l].searchsorted(keys[lo:hi], side="left")
            pos.reshape(E, -1)[:, pairs] = found.T
        return pos


@dataclass
class Constant:
    """The coefficient surface c."""

    c: float

    def __post_init__(self):
        self.c = float(self.c)

    def __call__(self, x, y):
        return np.full(_shape(x, y), self.c)

    def plan(self, x):
        """The :class:`ConstantPlan` of the cluster means at the points x."""
        return ConstantPlan(self.c, np.size(x))


@dataclass
class ConstantPlan:
    """The cluster means of a constant at ``n`` points: nothing to set up."""

    c: float
    n: int

    def apply(self, clusters):
        """(n, width) copies of c."""
        return np.full((self.n, clusters.width), self.c)


@dataclass
class Poly2:
    """const + x X + y Y + xx X^2 + xy X Y + yy Y^2, optionally clipped.

    Its exact cluster means are :meth:`plan`, the set-up that depends only
    on the query points, then :meth:`Poly2Plan.apply` for the clusters. A
    caller that integrates at the same points against several sets of
    clusters builds the plan once and applies it to each.
    """

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

    def plan(self, x):
        """The :class:`Poly2Plan` of the cluster means at the points x.

        For a clip, each point's cuts are the real roots of the quadratic at
        both clip levels, sorted, and each segment between them is flagged
        below the clip, inside it or above it. A clip linear in y has one
        root per level, so sorting is a minimum and a maximum, and where
        both roots are finite the sign of the slope b fixes the regimes:
        rising, the segments lie below, inside and above the clip. Every
        other point (a root absent or overflowed, or a clip quadratic in y)
        reads its regime at a probe strictly inside each segment.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a = (self.const + self.x * x + self.xx * x**2)[:, None]   # coef of 1
        b = (self.y + self.xy * x)[:, None]                        # coef of y
        c = self.yy                                                # coef of y^2
        if self.clip is None:
            return Poly2Plan(a, b, c)
        lo, hi = self.clip
        roots = self._roots(a, b, lo), self._roots(a, b, hi)
        if c == 0.0:
            cuts = np.concatenate([np.minimum(*roots), np.maximum(*roots)], axis=1)
            below = np.zeros((x.size, 3), dtype=bool)
            below[:, 0], below[:, 2] = b[:, 0] > 0.0, b[:, 0] < 0.0
            mid = np.zeros((x.size, 3), dtype=bool)
            mid[:, 1] = True
            # an absent root is +inf, so the larger cut is finite only
            # when both are
            probed = np.flatnonzero(~np.isfinite(cuts[:, 1]))
            if probed.size:
                below[probed], mid[probed] = self._regimes(
                    a[probed], b[probed], cuts[probed])
        else:
            cuts = np.concatenate(roots, axis=1)
            cuts.sort(axis=1)
            below, mid = self._regimes(a, b, cuts)
        # segment-major, one (n, 1) column of each per segment
        return Poly2Plan(a, b, c, cuts, np.where(below.T, lo, hi)[:, :, None],
                         np.ascontiguousarray(mid.T)[:, :, None])

    def _regimes(self, a, b, cuts):
        """(below, inside) flags of the segments between the sorted ``cuts``
        (n, E), each read at a point strictly inside it, never at a cut."""
        lo, hi = self.clip
        c = self.yy
        ends = np.full((cuts.shape[0], 1), np.inf)
        edges = np.concatenate([-ends, cuts, ends], axis=1)
        left, right = edges[:, :-1], edges[:, 1:]
        with np.errstate(invalid="ignore", over="ignore"):
            probe = np.where(np.isfinite(left) & np.isfinite(right),
                             0.5 * (left + right),
                             np.where(np.isfinite(right), right - 1.0 - np.abs(right),
                                      np.where(np.isfinite(left),
                                               left + 1.0 + np.abs(left), 0.0)))
            g = a + probe * (b + c * probe)
        return g < lo, (g >= lo) & (g <= hi)

    def _roots(self, a, b, level):
        """Real roots in y of c y^2 + b y + a = level, +inf if absent:
        (n, 1) when c == 0, (n, 2) otherwise."""
        k = a - level
        c = self.yy
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if c == 0.0:
                roots = -k / b
            else:
                disc = b * b - 4.0 * c * k
                q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
                roots = np.concatenate([q / c, k / q], axis=1)
                roots[(disc < 0.0)[:, 0]] = np.inf
        return np.where(np.isfinite(roots), roots, np.inf)


class Poly2Plan:
    """The cluster means of a :class:`Poly2` at fixed points, set up.

    Built by :meth:`Poly2.plan` from the points' coefficients ``a`` and
    ``b`` (n, 1) of 1 and y, and ``c`` of y^2; a clip adds the sorted
    ``cuts`` (n, E), each segment's clip ``level`` and ``mid`` flag (inside
    the clip), both (E+1, n, 1). :meth:`apply` does the rest per
    :class:`SortedClusters`: without a clip, the cluster moments; with one,
    :meth:`SortedClusters.positions` at the cuts, then the E+1 segments one
    at a time.
    """

    def __init__(self, a, b, c, cuts=None, level=None, mid=None):
        self.a, self.b, self.c = a, b, c
        # cut-major in memory, the order in which the cuts are searched
        self.cuts = None if cuts is None else np.asfortranarray(cuts)
        self.level, self.mid = level, mid
        if mid is not None:
            # per segment: is every point inside the clip, is any
            self.regimes = [(bool(m.all()), bool(m.any())) for m in mid]
        # a clip linear in y never reads the y^2 sums
        self.powers = (1,) if c == 0.0 else (1, 2)

    def apply(self, clusters):
        """(n, width) exact means over each column's cluster of ``clusters``:
        ``width`` is M, one column per cluster, or the width of a
        :meth:`SortedClusters.view`. A fresh C-order array.

        With a clip, the segments are walked left to right on (n, width)
        planes. Segment j runs from cut j-1 to cut j (cut -1 at position 0
        of each column, cut E at position n): its count and its sums of y and y^2
        are differences of the positions and of the prefix sums read
        there; its sum is a count + b s1 (+ c s2) inside the clip and
        level count outside it, picked by ``mid``; and it is added to one
        running total. Every element gets the operations, and the order of
        additions, of a sum over a (n, width, E+1) table of the segments.
        """
        if self.cuts is None:
            m1, m2 = clusters.means()
            return self.a + self.b * m1 + self.c * m2
        total = self._segment_total(clusters)
        return np.divide(total, clusters.size, out=np.empty(total.shape))

    def _segment_total(self, clusters):
        # the (n, width) sum over the segments, before the division by the
        # cluster size; one set of plane buffers serves every segment
        pos = clusters.positions(self.cuts)
        E, size = pos.shape[0], clusters.size
        # each power's prefix sums at every cut, then at each column's end;
        # a column's prefix row starts at this offset of the flat sums
        starts = clusters.columns * (size + 1)
        sums = []
        for p in self.powers:
            flat = clusters.prefix(p).ravel()
            sums.append([flat[pos[e] + starts] for e in range(E)]
                        + [flat[starts + size]])
        # the positions as floats, exact: every count is then a float
        # difference, and no product below casts
        edges = [pos[e].astype(float) for e in range(E)] + [size]
        del pos   # freed before the walk's buffers are taken: a lower peak
        total, seg, counts, term = (np.empty_like(edges[0]) for _ in range(4))
        for j, (all_mid, any_mid) in enumerate(self.regimes):
            count = edges[0] if j == 0 else np.subtract(edges[j], edges[j - 1], out=counts)
            out = total if j == 0 else seg
            if any_mid:
                np.multiply(self.a, count, out=out)
                for coef, s in zip((self.b, self.c), sums):
                    # the first segment starts at prefix sum 0
                    diff = s[0] if j == 0 else np.subtract(s[j], s[j - 1], out=term)
                    out += np.multiply(coef, diff, out=term)
            if not all_mid:
                level = np.multiply(self.level[j], count, out=term if any_mid else out)
                if any_mid:
                    # np.where, not a masked copy: a per-point mask on the
                    # column-major planes of shared columns changes along
                    # their contiguous axis, which slows copyto severalfold
                    out = np.where(self.mid[j], out, level)
            if j == 0:
                total = out
            else:
                total += out
        return total
