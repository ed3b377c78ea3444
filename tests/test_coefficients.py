import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmfg import (Constant, InvariantError, MeasureEnsemble, Poly2,
                  ProblemFunctions, SortedClusters)
from gmfg.population import _stack_views

# Small dyadic numbers keep the arithmetic exact often enough that samples
# tie and land exactly on a clip threshold; plain floats cover the rest.
numbers = st.one_of(st.integers(-6, 6).map(lambda v: v / 2.0),
                    st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def coefficients(draw):
    if draw(st.booleans()):
        return Constant(draw(numbers))
    terms = {k: draw(numbers) for k in ("const", "x", "y", "xx", "xy")}
    terms["yy"] = draw(st.one_of(st.just(0.0), numbers))
    clip = None
    if draw(st.booleans()):
        lo = draw(numbers)
        clip = (lo, lo + draw(st.one_of(st.integers(1, 4).map(lambda v: v / 2.0),
                                        st.floats(1e-3, 4.0))))
    return Poly2(clip=clip, **terms)


@st.composite
def clustered_samples(draw):
    sizes = [draw(st.integers(1, 7))] * draw(st.integers(1, 4))
    values = np.array(draw(st.lists(numbers, min_size=sum(sizes),
                                    max_size=sum(sizes))))
    x = np.array(draw(st.lists(numbers, min_size=1, max_size=5)))
    own = np.array(draw(st.lists(st.integers(0, len(sizes) - 1),
                                 min_size=x.size, max_size=x.size)))
    return sizes, values, x, own


def equal_clusters(values, sizes):
    """The clusters of samples listed cluster by cluster, all of one size."""
    return SortedClusters(np.reshape(values, (len(sizes), -1)))


def brute_force_means(coef, sizes, values, x):
    bounds = np.cumsum([0] + list(sizes))
    return np.stack([coef(x[:, None], values[None, a:b]).mean(axis=1)
                     for a, b in zip(bounds[:-1], bounds[1:])], axis=1)


def scale(coef, values, x):
    if isinstance(coef, Constant):
        return 1.0 + abs(coef.c)
    ymax = np.abs(values).max()
    a = np.abs(coef.const) + np.abs(coef.x * x) + np.abs(coef.xx * x**2)
    b = np.abs(coef.y) + np.abs(coef.xy * x)
    clip = np.abs(coef.clip).max() if coef.clip is not None else 0.0
    return 1.0 + float(np.max(a + b * ymax + abs(coef.yy) * ymax**2)) + clip


class TestClusterMeans:
    @settings(max_examples=400, deadline=None)
    @given(coefficients(), clustered_samples())
    @example(Poly2(x=-1.0, y=1.0, clip=(-2.0, 2.0)),
             ([3, 3], np.array([-2.0, 2.0, 2.0, 0.0, -2.0, 2.0]), np.array([0.0, 4.0]),
              np.array([1, 0])))
    @example(Poly2(xx=1.0, xy=-2.0, yy=1.0, clip=(0.0, 1.0)),
             ([4], np.array([-1.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.5]),
              np.array([0, 0])))
    @example(Poly2(yy=-1.0, clip=(-1.0, -0.25)),
             ([4, 4], np.array([0.5, -1.0, 0.5, 1.0, -1.0, 1.0, 0.5, 0.5]),
              np.array([0.0]), np.array([1])))
    # clips linear in y: slope b > 0, b < 0, b == 0 with a inside and
    # outside the clip (no cut), samples exactly on a cut, and a root that
    # overflows (a huge, b tiny), which must not read the sign of b
    @example(Poly2(const=0.5, y=2.0, clip=(-1.0, 1.0)),
             ([3, 3], np.array([-0.75, 0.25, -2.0, 1.0, 0.0, -0.5]),
              np.array([0.0, 1.0]), np.array([0, 1])))
    @example(Poly2(x=1.0, y=-2.0, clip=(-1.0, 1.0)),
             ([2, 2], np.array([0.5, -0.5, 0.75, 3.0]), np.array([0.0, 0.5]),
              np.array([1, 0])))
    @example(Poly2(const=0.25, y=1.0, xy=-1.0, clip=(-1.0, 1.0)),
             ([3], np.array([-4.0, 0.0, 4.0]), np.array([1.0, 0.0, 2.0]),
              np.array([0, 0, 0])))
    @example(Poly2(const=3.0, x=0.5, clip=(-1.0, 1.0)),
             ([2, 2], np.array([-1.0, 1.0, 0.0, 2.0]), np.array([-10.0, 0.0]),
              np.array([0, 1])))
    @example(Poly2(const=1e300, y=1e-10, clip=(-1.0, 1.0)),
             ([3], np.array([-1.0, 0.0, 2.0]), np.array([0.0]), np.array([0])))
    # a == lo and a tiny slope: a probe left of the cut at 0 rounds back to
    # lo and would read the segment as inside the clip
    @example(Poly2(const=1.0, y=1e-20, clip=(1.0, 2.0)),
             ([3], np.array([-1e30, 0.5, 1.0]), np.array([0.0]), np.array([0])))
    def test_exact_against_brute_force(self, coef, samples):
        sizes, values, x, own = samples
        clusters = equal_clusters(values, sizes)
        got = coef.plan(x).apply(clusters)
        want = brute_force_means(coef, sizes, values, x)
        tol = 1e-12 * scale(coef, values, x)
        assert got.shape == (x.size, len(sizes))
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        got_own = coef.plan(x).apply(clusters.view(own[:, None]))
        assert got_own.shape == (x.size, 1)
        np.testing.assert_allclose(got_own[:, 0], want[np.arange(x.size), own],
                                   rtol=0, atol=tol)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_linear_clip_whose_slope_changes_sign(self, data):
        """yy == 0 with an xy term: the slope b = y + xy x in y is negative,
        exactly zero and positive across the query points, so each point's
        single cut per level lies on either side of the line or is absent,
        and the sums of 1 and y alone still fix every segment's regime."""
        dyadic = st.integers(-6, 6).map(lambda v: v / 2.0)
        xy = data.draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
        x0 = data.draw(dyadic)
        steps = data.draw(st.lists(st.integers(1, 4).map(lambda v: v / 2.0),
                                   min_size=2, max_size=2))
        x = np.array([x0 - steps[0], x0, x0 + steps[1]])
        lo = data.draw(numbers)
        coef = Poly2(const=data.draw(numbers), x=data.draw(numbers),
                     xx=data.draw(numbers), y=-xy * x0, xy=xy,
                     clip=(lo, lo + data.draw(st.integers(1, 4)) / 2.0))
        slope = coef.y + coef.xy * x
        assert slope.min() < 0.0 and slope[1] == 0.0 and slope.max() > 0.0
        sizes = [data.draw(st.integers(1, 7))] * data.draw(st.integers(1, 4))
        values = np.array(data.draw(st.lists(numbers, min_size=sum(sizes),
                                             max_size=sum(sizes))))
        got = coef.plan(x).apply(equal_clusters(values, sizes))
        np.testing.assert_allclose(got, brute_force_means(coef, sizes, values, x),
                                   rtol=0, atol=1e-12 * scale(coef, values, x))

    def test_tiny_quadratic_term_does_not_overflow(self):
        # q / yy overflows to an infinite root, which counts as absent
        coef = Poly2(y=1e10, yy=1e-300, clip=(-1.0, 1.0))
        sizes = [3, 3]
        values = np.array([-1e-10, -2e-11, 0.0, 3e-11, 2e-10, -5e-11])
        x = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coef.plan(x).apply(equal_clusters(values, sizes))
        want = brute_force_means(coef, sizes, values, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_overflowed_root_reads_its_regime_at_a_probe(self):
        # both roots of a + b y at the clip levels overflow to +inf, so there
        # is no cut; the one segment lies above the clip whatever b's sign
        coef = Poly2(const=1e300, y=1e-10, clip=(-1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coef.plan([0.0]).apply(equal_clusters(np.array([-1.0, 0.0, 2.0]), [3]))
        assert got.tolist() == [[1.0]]

    def test_plan_applies_to_any_clusters(self):
        """One plan per coefficient and points, reused across cluster sets,
        gives the bits of a fresh plan per set, for each kind of
        coefficient."""
        rng = np.random.default_rng(3)
        x = np.linspace(-2.0, 2.0, 9)
        for coef in (Constant(0.5), Poly2(x=1.0, xy=0.5), Poly2(x=-1.0, y=1.0, clip=(-0.5, 0.5)),
                     Poly2(xx=1.0, xy=-2.0, yy=1.0, clip=(0.1, 1.5))):
            plan = coef.plan(x)
            for _ in range(3):
                clusters = SortedClusters(rng.normal(size=(4, 7)))
                for view in (clusters, clusters.view(np.arange(9)[:, None] % 4)):
                    assert np.array_equal(plan.apply(view), coef.plan(x).apply(view))

    def test_scalar_query_gives_one_row(self):
        clusters = SortedClusters(np.array([[0.5, -1.0], [2.0, 1.5]]))
        got = Poly2(y=1.0, clip=(-0.5, 1.0)).plan(0.3).apply(clusters)
        np.testing.assert_allclose(got, [[0.0, 1.0]], rtol=0, atol=1e-15)


def segment_table_means(plan, clusters):
    """The clipped means by a table of the segments: every (point, column)
    pair's search positions, the ends 0 and n included, as one
    (n, width, E+2) table, each segment's count and power sums as the
    differences along it, and the segments' sums added left to right. An
    oracle for :meth:`Poly2Plan.apply`, which walks the segments one at a
    time and must give these bits."""
    ordered = clusters.sorted_rows()
    n, E = plan.cuts.shape
    columns = np.broadcast_to(clusters.columns, (n, clusters.width))
    pos = np.empty((n, clusters.width, E + 2), dtype=np.intp)
    pos[:, :, 0], pos[:, :, -1] = 0, clusters.size
    for i in range(n):
        for c in range(clusters.width):
            pos[i, c, 1:-1] = np.searchsorted(ordered[columns[i, c]], plan.cuts[i],
                                              side="left")
    sums = []
    for p in (1, 2):
        prefix = np.zeros((ordered.shape[0], clusters.size + 1))
        np.cumsum(ordered**p, axis=1, out=prefix[:, 1:])
        sums.append(np.diff(prefix[columns[:, :, None], pos], axis=2))
    n0 = np.diff(pos, axis=2)
    inside = plan.a[:, :, None] * n0
    inside += plan.b[:, :, None] * sums[0]
    if plan.c != 0.0:
        inside += plan.c * sums[1]
    seg = plan.level.transpose(1, 2, 0) * n0
    np.copyto(seg, inside, where=plan.mid.transpose(1, 2, 0))
    total = seg[..., 0] + seg[..., 1]
    for j in range(2, E + 1):
        total += seg[..., j]
    return total / clusters.size


@st.composite
def clipped_coefficients(draw):
    """Clips linear and quadratic in y: dyadic terms, so that the slope
    b = y + xy x of a linear clip can vanish at a query point (an absent
    root), and some whose roots overflow to infinity (a huge constant
    against a tiny slope)."""
    terms = {k: draw(numbers) for k in ("const", "x", "y", "xx", "xy")}
    terms["yy"] = draw(st.one_of(st.just(0.0), numbers))
    if draw(st.booleans()):
        terms.update(const=draw(st.sampled_from([1e300, -1e300])), x=0.0, xx=0.0,
                     y=draw(st.sampled_from([1e-10, -1e-10])), xy=0.0)
    lo = draw(numbers)
    return Poly2(clip=(lo, lo + draw(st.one_of(st.integers(1, 4).map(lambda v: v / 2.0),
                                               st.floats(1e-3, 4.0)))), **terms)


class TestPositions:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_grouped_search_equals_per_cluster_searchsorted(self, data):
        """Columns shared by every point (1, width) or chosen per point
        (n, width): plane e of the positions holds each (point, column)
        pair's search position of cut e in that column's sorted cluster."""
        sizes = [data.draw(st.integers(1, 6))] * data.draw(st.integers(1, 5))
        values = np.array(data.draw(st.lists(numbers, min_size=sum(sizes),
                                             max_size=sum(sizes))))
        n = data.draw(st.integers(1, 6))
        width = data.draw(st.integers(1, 4))
        rows = data.draw(st.sampled_from([1, n]))
        columns = np.array(data.draw(st.lists(
            st.integers(0, len(sizes) - 1), min_size=rows * width,
            max_size=rows * width))).reshape(rows, width)
        E = data.draw(st.integers(1, 4))
        cuts = np.sort(np.array(data.draw(st.lists(
            st.one_of(numbers, st.just(-np.inf), st.just(np.inf)),
            min_size=n * E, max_size=n * E))).reshape(n, E), axis=1)
        clusters = equal_clusters(values, sizes).view(columns)
        got = clusters.positions(np.asfortranarray(cuts))
        assert got.shape == (E, n, width)
        ordered = clusters.sorted_rows()
        assert np.array_equal(ordered, np.sort(np.reshape(values, (len(sizes), -1)),
                                               axis=1))
        for i in range(n):
            for c in range(width):
                l = columns[i % rows, c]
                np.testing.assert_array_equal(
                    got[:, i, c], np.searchsorted(ordered[l], cuts[i], side="left"))

    @staticmethod
    def assert_searchsorted(view, cuts):
        """Every (point, column) pair of ``view`` holds the left search
        positions of its point's cuts in its column's sorted samples."""
        got = view.positions(np.asfortranarray(cuts))
        ordered = view.sorted_rows()
        columns = np.broadcast_to(view.columns, (cuts.shape[0], view.width))
        want = np.array([[np.searchsorted(ordered[l], point_cuts, side="left")
                          for l in row] for row, point_cuts in zip(columns, cuts)])
        assert got.shape == (cuts.shape[1],) + columns.shape
        assert np.array_equal(got, want.transpose(2, 0, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stack_views_search_only_inside_cuts_yet_equal_searchsorted(self, data):
        """The own-cluster (width 1) and row (width M_k) views of a stack
        search only the pairs with a cut strictly inside their cluster's
        range, yet every pair reads searchsorted's position: cuts on a
        cluster's least or greatest sample, tied samples, absent roots
        (+inf) and cuts beyond every cluster, for E = 2 and E = 4."""
        S, M_k, size = (data.draw(st.integers(1, 3)) for _ in range(3))
        # few distinct samples, so that they tie
        values = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=S * M_k * size,
                                             max_size=S * M_k * size))) / 2.0
        clusters = SortedClusters(values.reshape(S * M_k, size))
        own = np.array(data.draw(st.lists(st.integers(0, M_k - 1), min_size=1, max_size=4)))
        E = data.draw(st.sampled_from([2, 4]))
        n = S * own.size
        cut = st.one_of(st.sampled_from(sorted(set(values.tolist()))),
                        st.sampled_from([-5.0, 5.0, np.inf]), numbers)
        cuts = np.sort(np.array(data.draw(st.lists(cut, min_size=n * E, max_size=n * E)))
                       .reshape(n, E), axis=1)
        for view in _stack_views(clusters, S, M_k, own):
            self.assert_searchsorted(view, cuts)

    def test_cuts_on_the_range_ends(self):
        """A cut at a cluster's least sample sits at 0 without a search; one
        at its greatest sample is searched, and lands before its ties."""
        clusters = SortedClusters([[0.0, 1.0, 1.0], [2.0, 2.0, 3.0]])
        own, row = _stack_views(clusters, 1, 2, np.array([0, 1]))
        for cuts in ([[0.0, 1.0], [2.0, 3.0]], [[1.0, np.inf], [-1.0, 2.0]],
                     [[0.0, 0.0, 1.0, np.inf], [2.0, 2.5, 3.0, 3.5]]):
            for view in (own, row):
                self.assert_searchsorted(view, np.array(cuts))

    @settings(max_examples=300, deadline=None)
    @given(clipped_coefficients(), st.data())
    @example(Poly2(const=1e300, y=1e-10, clip=(-1.0, 1.0)), None)
    @example(Poly2(y=1.0, xy=-1.0, clip=(-0.5, 0.5)), None)
    @example(Poly2(xx=1.0, xy=-2.0, yy=1.0, clip=(0.0, 1.0)), None)
    def test_walk_equals_the_segment_table(self, coef, data):
        """Bit for bit, the segment walk of a clipped apply equals the
        table of segments, for shared and per-point views of clusters of
        several sizes with samples tied with the cuts, and it returns a
        C-order array."""
        if data is None:   # an @example: ties on the cuts at x = 0 and 1
            sizes, values = [4, 4], np.array([-1.0, 0.5, 0.5, 1.0, 0.0, 1.0, -0.5, 2.0])
            x, columns = np.array([0.0, 1.0, 0.5]), np.array([[1, 0], [0, 0], [1, 1]])
        else:
            sizes = [data.draw(st.integers(1, 7))] * data.draw(st.integers(1, 5))
            values = np.array(data.draw(st.lists(numbers, min_size=sum(sizes),
                                                 max_size=sum(sizes))))
            x = np.array(data.draw(st.lists(numbers, min_size=1, max_size=6)))
            width = data.draw(st.integers(1, 3))
            columns = np.array(data.draw(st.lists(
                st.integers(0, len(sizes) - 1), min_size=x.size * width,
                max_size=x.size * width))).reshape(x.size, width)
        clusters = equal_clusters(values, sizes)
        plan = coef.plan(x)
        for view in (clusters, clusters.view(columns[:1]), clusters.view(columns)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = plan.apply(view)
            want = segment_table_means(plan, view)
            assert got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestApplyMemory:
    @pytest.mark.parametrize("yy, ceiling", [(0.0, 12), (0.5, 22)])
    def test_one_clipped_apply_stays_under_its_ceiling(self, yy, ceiling):
        """One clipped apply at 201 points against 512 clusters of 128
        samples allocates at most ``ceiling`` times its result's bytes: a
        clip linear in y (E = 2 cuts) and one quadratic in y (E = 4). A
        table of every segment's positions and sums would need 14 and 27
        times."""
        rng = np.random.default_rng(4)
        clusters = SortedClusters.from_sorted(np.sort(rng.normal(0.0, 0.6, (512, 128)),
                                                      axis=1))
        plan = Poly2(x=-1.0, y=1.0, yy=yy, clip=(-2.0, 2.0)).plan(np.linspace(-3.0, 3.0, 201))
        assert plan.cuts.shape[1] == (2 if yy == 0.0 else 4)
        plan.apply(clusters)   # the sorted prefix sums are the clusters' own
        tracemalloc.start()
        try:
            result = plan.apply(clusters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling * result.nbytes, peak / result.nbytes


class TestEnsembleClusters:
    coef = Poly2(x=-1.0, y=1.0, clip=(-0.5, 0.5))

    def check(self, ens, rows):
        """The ensemble's clusters at node 0 read its sorted rows in place,
        and their clipped means equal those of the rows given unsorted."""
        clusters = ens.clusters(0)
        assert np.shares_memory(clusters.sorted_rows(), ens.atoms)
        x = np.linspace(-1.5, 1.5, 13)
        np.testing.assert_array_equal(
            self.coef.plan(x).apply(clusters),
            self.coef.plan(x).apply(SortedClusters(rows)))

    def test_uniform_ensemble(self):
        rows = np.random.default_rng(3).normal(0.0, 0.6, (3, 40))
        self.check(MeasureEnsemble(rows[:, None], [0.0]), rows)

    def test_moments_do_not_depend_on_the_input_layout(self):
        """An ensemble built from a strided view, as the marginals of
        (M, n, K+1) paths are, owns C-order atoms: its cluster moments and
        clipped means equal those built from a C-order copy, bit for bit."""
        paths = np.random.default_rng(6).normal(0.0, 0.6, (3, 257, 4))
        view = np.swapaxes(paths, 1, 2)
        assert not view.flags.c_contiguous
        strided = MeasureEnsemble(view, np.linspace(0.0, 1.0, 4))
        contiguous = MeasureEnsemble(np.ascontiguousarray(view), strided.times)
        x = np.linspace(-1.5, 1.5, 13)
        for k in range(4):
            a, b = strided.clusters(k), contiguous.clusters(k)
            assert np.array_equal(a.s1, b.s1) and np.array_equal(a.s2, b.s2)
            assert np.array_equal(self.coef.plan(x).apply(a),
                                  self.coef.plan(x).apply(b))


class TestPointwise:
    def test_poly2_matches_formula(self):
        x = np.linspace(-2, 2, 7)[:, None]
        y = np.linspace(-1, 3, 5)[None, :]
        c = Poly2(const=0.5, x=-1.0, y=2.0, xx=0.25, xy=-0.5, yy=1.5)
        want = 0.5 - x + 2 * y + 0.25 * x**2 - 0.5 * x * y + 1.5 * y**2
        np.testing.assert_allclose(c(x, y), want, rtol=1e-15, atol=1e-15)
        clipped = Poly2(const=0.5, x=-1.0, y=2.0, xx=0.25, xy=-0.5, yy=1.5,
                        clip=(-1.0, 2.0))
        np.testing.assert_array_equal(clipped(x, y), np.clip(c(x, y), -1.0, 2.0))

    def test_constant_broadcasts(self):
        out = Constant(0.7)(np.zeros(3)[:, None], np.zeros(4))
        assert out.shape == (3, 4) and np.all(out == 0.7)


def test_structured_rejects_plain_callables():
    tracking = Poly2(xx=1.0, xy=-2.0, yy=1.0)
    with pytest.raises(InvariantError, match="f0 must be a Constant or a Poly2"):
        ProblemFunctions.structured(lambda x, y: x + y, Constant(1.0), tracking,
                                    Constant(1.0), Constant(0.0), Constant(0.0),
                                    (-1, 1), 0.3, 1.0)
    with pytest.raises(InvariantError, match="l2 must be"):
        ProblemFunctions.structured(Constant(1.0), Constant(1.0), tracking,
                                    1.0, Constant(0.0), Constant(0.0),
                                    (-1, 1), 0.3, 1.0)
