import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import ndtri

from gmfg import (DomainError, GridError, InvariantError, Measure1D,
                  MeasureEnsemble, PathBundle, dirac, empirical,
                  ensemble_distance, ensemble_w1_sup, holder_modulus, marginals,
                  node_masses, node_quantiles, node_w1_sup,
                  normal_quantile_measure, path_distance_DT, w1,
                  w1_joint_continuity_scan)


def lp_transport_cost(mu, nu):
    """Brute-force optimal transport via the coupling linear program."""
    n, m = len(mu), len(nu)
    cost = np.abs(mu.atoms[:, None] - nu.atoms[None, :]).reshape(-1)
    A_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        A_eq.append(row.reshape(-1))
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        A_eq.append(row.reshape(-1))
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost, A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def random_measure(gen, max_atoms=6):
    n = gen.integers(1, max_atoms + 1)
    atoms = gen.uniform(-5, 5, n)
    w = gen.uniform(0.05, 1.0, n)
    return Measure1D(atoms, w / w.sum())


def normal_table(mean=0.0, std=1.0, n=4001):
    levels = (np.arange(n) + 0.5) / n
    return Measure1D(mean + std * ndtri(levels))


class TestMeasure1D:
    def test_validation(self):
        with pytest.raises(DomainError):
            Measure1D([])
        with pytest.raises(InvariantError):
            Measure1D([0.0, 1.0], [0.7, 0.7])
        with pytest.raises(InvariantError):
            Measure1D([np.inf], [1.0])
        with pytest.raises(InvariantError):
            Measure1D([0.0, 1.0], [1.2, -0.2])
        # a NaN weight sum is not more than the tolerance away from 1
        for weights in ([np.nan, np.nan], [1.0, np.nan], [np.inf, -np.inf]):
            with pytest.raises(InvariantError, match="weights must be finite"):
                Measure1D([0.0, 1.0], weights)

    def test_mean_and_quantiles(self):
        m = Measure1D([2.0, 0.0], [0.25, 0.75])
        assert m.mean() == pytest.approx(0.5)
        assert m.quantile(0.5) == 0.0
        assert m.quantile(0.9) == 2.0


class TestEmpirical:
    def test_all_equal_is_dirac(self):
        m = empirical([1.0, 1.0, 1.0])
        assert w1(m, dirac(1.0)) == 0.0

    def test_two_point_mean(self):
        assert empirical([0.0, 2.0]).mean() == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            empirical([])

    def test_large_normal_sample_close_to_quantile_table(self):
        gen = np.random.default_rng(42)
        m = empirical(gen.standard_normal(10_000))
        assert w1(m, normal_table()) < 0.05


class TestW1:
    def test_identical_measures(self):
        m = Measure1D([0.0, 1.0, 3.0], [0.2, 0.3, 0.5])
        assert w1(m, m) == 0.0

    def test_dirac_pair(self):
        assert w1(dirac(-1.0), dirac(2.5)) == pytest.approx(3.5)

    def test_half_half_vs_middle(self):
        mu = Measure1D([0.0, 1.0], [0.5, 0.5])
        nu = dirac(0.5)
        assert w1(mu, nu) == pytest.approx(0.5)
        assert w1(mu, nu) == pytest.approx(lp_transport_cost(mu, nu))

    def test_matches_lp_oracle_on_random_instances(self):
        gen = np.random.default_rng(123)
        for _ in range(40):
            mu, nu = random_measure(gen), random_measure(gen)
            assert w1(mu, nu) == pytest.approx(lp_transport_cost(mu, nu), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_metric_properties(self, seed):
        gen = np.random.default_rng(seed)
        a, b, c = (random_measure(gen) for _ in range(3))
        assert w1(a, b) == pytest.approx(w1(b, a), abs=1e-12)
        assert w1(a, c) <= w1(a, b) + w1(b, c) + 1e-12
        assert w1(a, a) == 0.0


class TestPathDistance:
    def _bundle(self, paths):
        paths = np.asarray(paths, dtype=float)
        times = np.linspace(0, 1, paths.shape[-1])
        return PathBundle(paths, times)

    def test_identical_bundles(self):
        p = np.random.default_rng(0).normal(size=(3, 10, 5))
        b = self._bundle(p)
        assert path_distance_DT(b.paths[0], b.paths[0]) == 0.0
        assert ensemble_distance(b, self._bundle(p.copy())) == 0.0

    def test_constant_shift(self):
        p = np.zeros((1, 8, 4))
        b1, b2 = self._bundle(p), self._bundle(p + 0.3)
        assert path_distance_DT(b1.paths[0], b2.paths[0]) == pytest.approx(0.3)

    def test_truncation_at_one(self):
        p = np.zeros((1, 8, 4))
        b1, b2 = self._bundle(p), self._bundle(p + 5.0)
        assert path_distance_DT(b1.paths[0], b2.paths[0]) == 1.0

    def test_ensemble_distance_max_over_vertices(self):
        p = np.zeros((3, 6, 4))
        q = p.copy()
        q[1] += 0.3
        assert ensemble_distance(self._bundle(p), self._bundle(q)) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(GridError):
            path_distance_DT(np.zeros((4, 3)), np.zeros((5, 3)))
        with pytest.raises(GridError):
            ensemble_distance(self._bundle(np.zeros((2, 4, 3))),
                              self._bundle(np.zeros((2, 5, 3))))

    def test_dominates_truncated_marginal_w1(self):
        gen = np.random.default_rng(17)
        b1 = self._bundle(gen.normal(size=(3, 40, 5)))
        b2 = self._bundle(gen.normal(size=(3, 40, 5)))
        d = ensemble_distance(b1, b2)
        e1, e2 = marginals(b1), marginals(b2)
        for v in range(3):
            for k in range(5):
                assert d >= min(w1(e1.get(v, k), e2.get(v, k)), 1.0) - 1e-12


class TestMarginals:
    def test_constant_paths_give_dirac(self):
        b = PathBundle(np.zeros((2, 50, 4)), np.linspace(0, 1, 4))
        e = marginals(b)
        for v in range(2):
            for k in range(4):
                assert w1(e.get(v, k), dirac(0.0)) == 0.0

    def test_deterministic_drift(self):
        times = np.linspace(0, 1, 5)
        paths = np.broadcast_to(times, (1, 20, 5)).copy()
        e = marginals(PathBundle(paths, times))
        for k, t in enumerate(times):
            assert w1(e.get(0, k), dirac(t)) == pytest.approx(0.0, abs=1e-15)

    def test_brownian_terminal_close_to_normal(self):
        gen = np.random.default_rng(1)
        K, R = 64, 10_000
        times = np.linspace(0, 1, K + 1)
        steps = gen.standard_normal((1, R, K)) * np.sqrt(1.0 / K)
        paths = np.concatenate([np.zeros((1, R, 1)), np.cumsum(steps, axis=2)], axis=2)
        e = marginals(PathBundle(paths, times))
        assert w1(e.get(0, K), normal_table()) < 0.05


class TestHolderModulus:
    def test_time_constant_degenerate(self):
        bundle = PathBundle(np.zeros((2, 10, 5)), np.linspace(0, 1, 5))
        assert holder_modulus(bundle) == (0.0, 1.0)

    def test_brownian_exponent_near_half(self):
        gen = np.random.default_rng(5)
        K, R = 64, 10_000
        times = np.linspace(0, 1, K + 1)
        steps = gen.standard_normal((1, R, K)) * np.sqrt(1.0 / K)
        paths = np.concatenate([np.zeros((1, R, 1)), np.cumsum(steps, axis=2)], axis=2)
        c_h, eta = holder_modulus(PathBundle(paths, times))
        assert eta == pytest.approx(0.5, abs=0.02)
        # E|B_{t+h} - B_t| = sqrt(2 h / pi)
        assert c_h == pytest.approx(np.sqrt(2.0 / np.pi), rel=0.05)

    def test_linear_drift_exponent_near_one(self):
        times = np.linspace(0, 1, 17)
        gen = np.random.default_rng(2)
        x0 = gen.uniform(-0.5, 0.5, (1, 200, 1))
        paths = x0 + 0.7 * times[None, None, :]
        c_h, eta = holder_modulus(PathBundle(paths, times))
        assert eta == pytest.approx(1.0, abs=1e-9)
        assert c_h == pytest.approx(0.7, rel=1e-9)

    def test_needs_three_time_points(self):
        bundle = PathBundle(np.zeros((1, 3, 2)), [0.0, 1.0])
        with pytest.raises(GridError):
            holder_modulus(bundle)


class TestNodeLaws:
    """Node masses on a space grid: the solver's law between Fokker-Planck
    steps, its quantile atoms and its exact W1."""

    x = np.linspace(-1.0, 1.0, 21)

    def test_atoms_split_linearly_between_nodes(self):
        law = Measure1D([-1.0, -0.33, self.x[14], 1.0], [0.1, 0.2, 0.3, 0.4])
        m = node_masses(law, self.x)
        assert m.min() >= 0.0
        assert m.sum() == pytest.approx(1.0, abs=1e-15)
        assert m @ self.x == pytest.approx(law.mean(), abs=1e-15)
        # an atom on a node lands on it whole, the grid's ends included
        assert m[0] == pytest.approx(0.1) and m[-1] == pytest.approx(0.4)
        assert m[14] == pytest.approx(0.3)
        assert np.count_nonzero(m) == 5

    @pytest.mark.parametrize("atom", [-1.01, 1.0 + 1e-9])
    def test_atom_outside_the_grid_rejected(self, atom):
        with pytest.raises(DomainError, match="outside the space grid"):
            node_masses(Measure1D([0.0, atom]), self.x)

    def test_quantiles_spread_each_node_over_its_cell(self):
        """A node's mass is uniform over its cell, a half cell at an end."""
        n, dx = 8, 0.1
        m = np.zeros((2, self.x.size))
        m[0, 5] = 1.0
        m[1, 0] = 1.0
        got = node_quantiles(m, self.x, n)
        levels = (np.arange(n) + 0.5) / n
        np.testing.assert_allclose(got[0], self.x[5] - dx / 2 + levels * dx,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(got[1], -1.0 + levels * dx / 2, rtol=0, atol=1e-15)

    def test_quantiles_sorted_with_the_node_mean(self):
        gen = np.random.default_rng(4)
        m = gen.uniform(0.0, 1.0, (3, 2, self.x.size))
        m[..., [0, -1]] = 0.0   # no half cell, so each cell's mean is its node
        m[0, 0, 3:9] = 0.0      # empty nodes read no level
        m /= m.sum(axis=-1, keepdims=True)
        got = node_quantiles(m, self.x, 4096)
        assert got.shape == (3, 2, 4096)
        assert np.all(np.diff(got, axis=-1) >= 0.0)
        # to the quantization error of 4096 levels across density jumps
        np.testing.assert_allclose(got.mean(axis=-1), m @ self.x, rtol=0, atol=1e-4)

    def test_w1_sup_is_the_exact_distance(self):
        gen = np.random.default_rng(6)
        m1 = gen.uniform(0.0, 1.0, (2, 3, self.x.size))
        m2 = gen.uniform(0.0, 1.0, (2, 3, self.x.size))
        m1 /= m1.sum(axis=-1, keepdims=True)
        m2 /= m2.sum(axis=-1, keepdims=True)
        want = max(w1(Measure1D(self.x, a), Measure1D(self.x, b))
                   for a, b in zip(m1.reshape(-1, self.x.size), m2.reshape(-1, self.x.size)))
        assert node_w1_sup(m1, m2, 0.1) == pytest.approx(want, rel=1e-12)
        assert node_w1_sup(m1, m1, 0.1) == 0.0


class TestJointContinuityScan:
    def test_constant_ensemble(self):
        e = MeasureEnsemble(np.zeros((3, 4, 5)), np.linspace(0, 1, 4))
        assert w1_joint_continuity_scan(e) == 0.0

    def test_discontinuous_vertex_column(self):
        atoms = np.zeros((2, 3, 4))
        atoms[1] = 1.0
        e = MeasureEnsemble(atoms, np.linspace(0, 1, 3))
        assert w1_joint_continuity_scan(e) == pytest.approx(1.0)


class TestEnsembleContainer:
    def test_get(self):
        atoms = np.array([[[0.0, 0.0], [1.0, 0.0]], [[2.0, 2.0], [3.0, 3.0]]])
        e = MeasureEnsemble(atoms, [0.0, 1.0])
        assert e.n_vertices == 2 and e.n_times == 2
        assert e.get(0, 1).mean() == pytest.approx(0.5)
        assert ensemble_w1_sup(e, e) == 0.0

    def test_atoms_sorted_at_birth(self):
        """Each entry's atoms are sorted when the ensemble is built, every
        atom weighs 1/n, and the input stays as it was."""
        gen = np.random.default_rng(4)
        atoms = gen.normal(size=(2, 3, 7))
        given = atoms.copy()
        e = MeasureEnsemble(atoms, [0.0, 0.5, 1.0])
        assert np.array_equal(atoms, given)
        assert np.all(np.diff(e.atoms, axis=2) >= 0.0)
        assert np.all(e.weights == 1.0 / 7) and not e.weights.flags.writeable
        for v in range(2):
            for k in range(3):
                assert w1(e.get(v, k), Measure1D(atoms[v, k])) == 0.0

    def test_w1_sup_needs_equal_atom_counts(self):
        e3 = MeasureEnsemble(np.zeros((1, 2, 3)), [0.0, 1.0])
        e4 = MeasureEnsemble(np.zeros((1, 2, 4)), [0.0, 1.0])
        with pytest.raises(GridError):
            ensemble_w1_sup(e3, e4)

    def test_constructor_checks_its_atoms(self):
        times = np.linspace(0.0, 1.0, 4)
        with pytest.raises(GridError):
            MeasureEnsemble(np.zeros((4, 50)), times)
        with pytest.raises(GridError):
            MeasureEnsemble(np.zeros((3, 5, 50)), times)
        bad = np.zeros((3, 4, 50))
        bad[1, 2, 3] = np.nan
        with pytest.raises(InvariantError):
            MeasureEnsemble(bad, times)

    def test_w1_sup_equals_the_whole_array_reduction(self):
        """The whole-array sup is bit-equal to the one taken one vertex at a
        time: each row's mean is the same contiguous reduction either way."""
        from gmfg.measures import _w1_sorted_equal

        gen = np.random.default_rng(12)
        for shape in ((1, 3, 7), (5, 9, 130), (8, 33, 1000)):
            e1 = MeasureEnsemble(gen.normal(size=shape), np.arange(shape[1]))
            e2 = MeasureEnsemble(gen.standard_t(3, size=shape), np.arange(shape[1]))
            assert ensemble_w1_sup(e1, e2) == max(
                float(_w1_sorted_equal(a, b).max()) for a, b in zip(e1.atoms, e2.atoms))

    def test_marginals_leave_paths_unsorted(self):
        gen = np.random.default_rng(8)
        paths = gen.normal(size=(2, 50, 4))
        bundle = PathBundle(paths.copy(), np.linspace(0.0, 1.0, 4))
        e = marginals(bundle)
        assert np.array_equal(bundle.paths, paths)
        assert np.any(np.diff(bundle.paths, axis=1) < 0.0)
        assert np.array_equal(e.atoms, np.sort(np.swapaxes(paths, 1, 2), axis=2))

    def test_shift(self):
        e = MeasureEnsemble(np.zeros((1, 2, 3)), [0.0, 1.0])
        assert ensemble_w1_sup(e.shift(0.4), e) == pytest.approx(0.4)

    def test_csv_roundtrip_columns(self, tmp_path):
        from gmfg.artifacts import index_columns, write_csv

        e = MeasureEnsemble(np.arange(6.0).reshape(1, 2, 3), [0.0, 1.0])
        v, k, _, atom, weight = index_columns(e.atoms, e.weights)
        path = tmp_path / "ens.csv"
        write_csv(path, ["vertex_index", "time_index", "atom", "weight"],
                  [v, k, atom, weight])
        header = path.read_text().splitlines()[0]
        assert header == "vertex_index,time_index,atom,weight"
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 2].reshape(e.atoms.shape), e.atoms)
        np.testing.assert_array_equal(rows[:, 3].reshape(e.atoms.shape), e.weights)

    def test_normal_quantile_measure(self):
        m = normal_quantile_measure(1.0, 2.0, 801)
        assert m.mean() == pytest.approx(1.0, abs=1e-6)
        assert w1(m, Measure1D(1.0 + 2.0 * normal_table().atoms)) < 0.01

    @pytest.mark.parametrize("n", [129, 7])
    def test_normal_quantile_levels_match_ndtri(self, n):
        atoms = normal_quantile_measure(0.0, 1.0, n).atoms
        np.testing.assert_allclose(atoms, ndtri((np.arange(n) + 0.5) / n),
                                   rtol=0, atol=1e-15)
        if n % 2:
            assert normal_quantile_measure(0.3, 2.0, n).atoms[n // 2] == 0.3
