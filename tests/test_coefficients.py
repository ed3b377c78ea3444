import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmfg import Constant, InvariantError, Poly2, ProblemFunctions, SortedClusters

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
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    values = np.array(draw(st.lists(numbers, min_size=sum(sizes),
                                    max_size=sum(sizes))))
    x = np.array(draw(st.lists(numbers, min_size=1, max_size=5)))
    own = np.array(draw(st.lists(st.integers(0, len(sizes) - 1),
                                 min_size=x.size, max_size=x.size)))
    return sizes, values, x, own


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
             ([3, 2], np.array([-2.0, 2.0, 2.0, 0.0, -2.0]), np.array([0.0, 4.0]),
              np.array([1, 0])))
    @example(Poly2(xx=1.0, xy=-2.0, yy=1.0, clip=(0.0, 1.0)),
             ([4], np.array([-1.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.5]),
              np.array([0, 0])))
    @example(Poly2(yy=-1.0, clip=(-1.0, -0.25)),
             ([1, 4], np.array([0.5, -1.0, 1.0, 0.5, 0.5]), np.array([0.0]),
              np.array([1])))
    def test_exact_against_brute_force(self, coef, samples):
        sizes, values, x, own = samples
        clusters = SortedClusters(values, sizes)
        got = coef.cluster_means(x, clusters)
        want = brute_force_means(coef, sizes, values, x)
        tol = 1e-12 * scale(coef, values, x)
        assert got.shape == (x.size, len(sizes))
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        got_own = coef.cluster_means(x, clusters.own(own))
        assert got_own.shape == (x.size, 1)
        np.testing.assert_allclose(got_own[:, 0], want[np.arange(x.size), own],
                                   rtol=0, atol=tol)

    def test_tiny_quadratic_term_does_not_overflow(self):
        # q / yy overflows to an infinite root, which counts as absent
        coef = Poly2(y=1e10, yy=1e-300, clip=(-1.0, 1.0))
        sizes = [2, 3]
        values = np.array([-1e-10, -2e-11, 0.0, 3e-11, 2e-10])
        x = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coef.cluster_means(x, SortedClusters(values, sizes))
        want = brute_force_means(coef, sizes, values, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_scalar_query_gives_one_row(self):
        clusters = SortedClusters(np.array([0.5, -1.0, 2.0]), [2, 1])
        got = Poly2(y=1.0, clip=(-0.5, 1.0)).cluster_means(0.3, clusters)
        np.testing.assert_allclose(got, [[0.0, 1.0]], rtol=0, atol=1e-15)


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
