import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfg import (ConfigError, Constant, Graphon, InvariantError,
                  MeasureEnsemble, Policy, Poly2, ProblemFunctions, frozen_fields,
                  minimize_hamiltonian, policy_lipschitz, rollout_cost,
                  solve_hjb, theta_clamp)
from gmfg.control import GridLookup


tracking = Poly2(xx=1.0, xy=-2.0, yy=1.0)


def dirac_ensemble(c, M, K, T):
    times = np.linspace(0.0, T, K + 1)
    atoms = np.full((M, K + 1, 1), float(c))
    return MeasureEnsemble(atoms, np.ones(1), times)


def structured_lq_like(u_box=(-10, 10), sigma=0.3, T=1.0):
    # drift u, cost x^2 + u^2
    return ProblemFunctions.structured(
        Constant(1.0), Constant(0.0), Poly2(xx=1.0),
        Constant(1.0), Constant(0.0), Constant(0.0), u_box, sigma, T)


class TestProblemFunctions:
    def test_validation(self):
        with pytest.raises(InvariantError):
            structured_lq_like(u_box=(1, 1))
        with pytest.raises(InvariantError):
            ProblemFunctions.structured(Constant(0), Constant(0), Constant(0),
                                        Constant(0), Constant(0), Constant(0),
                                        (-1, 1), 0.3, 1.0)  # l2+l4 floor
        with pytest.raises(InvariantError):
            ProblemFunctions.structured(Constant(0), Constant(0), Constant(0),
                                        Constant(1), Constant(0), Constant(0),
                                        (-1, 1), 0.0, 1.0)  # sigma

    def test_structured_floor_records_c0(self):
        p = ProblemFunctions.structured(Constant(0), Constant(1), tracking,
                                        Constant(0.0), Constant(0), Constant(1),
                                        (-1, 1), 0.3, 0.5)


class TestThetaClamp:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(-10, 10))
    def test_clamp_cases(self, s):
        a, b = -1.0, 2.0
        u = theta_clamp(s, a, b)
        if s <= a:
            assert u == a
        elif s >= b:
            assert u == b
        else:
            assert u == s
        # u minimizes u^2 - 2su over [a,b]
        grid = np.linspace(a, b, 400)
        assert u**2 - 2 * s * u <= np.min(grid**2 - 2 * s * grid) + 1e-9


class TestFrozenFields:
    def test_zero_graphon_kills_coupling_term(self):
        p = ProblemFunctions.structured(Constant(1.0), Constant(1.0), tracking,
                                        Constant(1.0), Constant(0.0), Constant(1.0),
                                        (-1, 1), 0.3, 0.5)
        ens = dirac_ensemble(0.7, 4, 8, 0.5)
        x_grid = np.linspace(-2, 2, 41)
        f_zero = frozen_fields(p, Graphon.constant(0.0), 0.375, ens, x_grid)
        f_one = frozen_fields(p, Graphon.constant(1.0), 0.375, ens, x_grid)
        # with g = 0 only the intra bracket is active: drift coefficient 1
        np.testing.assert_allclose(f_zero.drift(0, x_grid, 1.0), 1.0)
        np.testing.assert_allclose(f_one.drift(0, x_grid, 1.0), 2.0)

    def test_generic_mixture_of_diracs(self):
        # f(x,y) = y against delta_c at every vertex with g = 1 gives c u
        p = ProblemFunctions.structured(Constant(0.0), Poly2(y=1.0),
                                        Constant(0.0), Constant(0.0), Constant(0.0),
                                        Constant(1.0), (-1, 1), 0.3, 0.5)
        c = -0.35
        ens = dirac_ensemble(c, 6, 4, 0.5)
        fl = frozen_fields(p, Graphon.constant(1.0), 0.25, ens, np.linspace(-1, 1, 11))
        np.testing.assert_allclose(fl.drift(2, np.array([0.1, 0.5]), 0.3), 0.3 * c,
                                   atol=1e-12)

    def test_uniform_attachment_section_weight(self):
        # f0 = 0, f = 1: the drift coefficient equals the section integral
        p = ProblemFunctions.structured(Constant(0.0), Constant(1.0), tracking,
                                        Constant(0.0), Constant(0.0), Constant(1.0),
                                        (-1, 1), 0.3, 0.5)
        ens = dirac_ensemble(0.0, 16, 4, 0.5)
        fl = frozen_fields(p, Graphon.uniform_attachment(), 0.5, ens,
                           np.linspace(-1, 1, 11))
        np.testing.assert_allclose(fl.drift(0, np.zeros(3), 1.0), 0.375, atol=1e-12)


class TestMinimizeHamiltonian:
    def _fields(self, p, g=None, M=4, K=6):
        g = g if g is not None else Graphon.constant(0.0)
        ens = dirac_ensemble(0.4, M, K, p.T)
        return frozen_fields(p, g, 0.375, ens, np.linspace(-3, 3, 61))

    def test_clamp_regimes(self):
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                        Constant(0.5), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.3, 1.0)
        fl = self._fields(p)
        # h = -1/(2*0.5) = -1, so u = clamp(-q)
        x = np.zeros(3)
        u = minimize_hamiltonian(fl, 0, x, np.array([2.0, 0.3, -5.0]))
        np.testing.assert_allclose(u, [-1.0, -0.3, 1.0])

    def test_invariant_error_when_quadratic_bracket_vanishes(self):
        # l2 = 0 and l4 only reachable through g = 0: the bracket collapses
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                        Constant(0.0), Constant(0.0), Constant(1.0),
                                        (-1, 1), 0.3, 1.0)
        fl = self._fields(p, g=Graphon.constant(0.0))
        with pytest.raises(InvariantError):
            minimize_hamiltonian(fl, 0, np.zeros(2), np.ones(2))

    def test_structured_agrees_with_grid_search(self):
        p = ProblemFunctions.structured(
            Poly2(const=1.0, x=0.2), Constant(0.3), tracking,
            Constant(0.6), Constant(0.1), Constant(0.4), (-1, 1), 0.3, 1.0)
        fl = self._fields(p, g=Graphon.constant(0.8))
        gen = np.random.default_rng(0)
        x = gen.uniform(-2, 2, 200)
        q = gen.uniform(-3, 3, 200)
        u = minimize_hamiltonian(fl, 2, x, q)
        # brute-force oracle: argmin of the Hamiltonian over a fine control grid
        us = np.linspace(-1, 1, 2001)

        def hamiltonian(v):
            return q[:, None] * fl.drift(2, x[:, None], v) + fl.cost(2, x[:, None], v)

        H = hamiltonian(us)
        u_grid = us[np.argmin(H, axis=1)]
        assert np.abs(u - u_grid).max() <= 0.5 * (us[1] - us[0]) + 1e-12
        assert np.all(hamiltonian(u[:, None])[:, 0] <= H.min(axis=1) + 1e-12)


class TestSolveHJB:
    def test_pure_control_cost_gives_zero_value_and_zero_policy(self):
        # drift u, cost u^2: minimizer 0 at q=0, value stays 0
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), Constant(0.0),
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.2, 0.5)
        ens = dirac_ensemble(0.0, 2, 16, 0.5)
        vg, pol = solve_hjb(p, Graphon.constant(0.0), 0.25, ens, np.linspace(-2, 2, 81))
        assert np.abs(vg.values).max() < 1e-12
        assert np.abs(pol.values).max() < 1e-12

    def test_stability_precondition(self):
        p = structured_lq_like(u_box=(-10, 10))
        ens = dirac_ensemble(0.0, 2, 8, 1.0)  # dt = 1/8 far too coarse
        with pytest.raises(ConfigError):
            solve_hjb(p, Graphon.constant(0.0), 0.25, ens, np.linspace(-3, 3, 61))

    @pytest.mark.slow
    def test_matches_scalar_riccati_solution(self):
        # V(t,x) = tanh(T-t) x^2 + sigma^2 log cosh(T-t); the box is wide
        # enough that the clamp never binds (|u*| <= 2|x| well inside 10).
        sigma, T = 0.3, 1.0
        p = structured_lq_like(u_box=(-10, 10), sigma=sigma, T=T)
        K, Nx = 8000, 3201
        x_grid = np.linspace(-6, 6, Nx)
        ens = dirac_ensemble(0.0, 1, K, T)
        vg, pol = solve_hjb(p, Graphon.constant(0.0), 0.5, ens, x_grid)
        mask = np.abs(x_grid) <= 2.0
        worst = 0.0
        for k in (0, K // 2):
            t = vg.times[k]
            exact = np.tanh(T - t) * x_grid**2 + sigma**2 * np.log(np.cosh(T - t))
            worst = max(worst, np.abs(vg.values[k] - exact)[mask].max())
        assert worst < 2e-3
        # the wide box never saturates where mass lives
        saturated = np.mean(np.abs(pol.values[:, mask]) > 10 - 1e-9)
        assert saturated < 1e-3

    def test_value_bound(self):
        p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                        Constant(1.0), Constant(0.0), Constant(0.0),
                                        (-1, 1), 0.3, 0.75)
        ens = dirac_ensemble(0.2, 2, 24, 0.75)
        x_grid = np.linspace(-2.5, 2.5, 101)
        from gmfg.control import frozen_fields as ff
        fl = ff(p, Graphon.constant(0.0), 0.25, ens, x_grid)
        vg, _ = solve_hjb(p, Graphon.constant(0.0), 0.25, ens, x_grid, fields=fl)
        # cost = const + quad u^2 with quad >= 0: its sup over the control
        # set is attained at u = 0 or at the largest |u|
        umax = max(abs(p.u_min), abs(p.u_max))
        cost_bound = np.maximum(np.abs(fl.cost_const),
                                np.abs(fl.cost_const + fl.cost_quad * umax**2)).max()
        assert np.abs(vg.values).max() <= p.T * cost_bound + 1e-9

    def test_grid_refinement_first_order(self):
        sigma, T = 0.3, 1.0
        p = structured_lq_like(u_box=(-2, 2), sigma=sigma, T=T)
        vals = []
        for Nx, K in [(101, 100), (201, 200), (401, 400)]:
            x_grid = np.linspace(-4, 4, Nx)
            ens = dirac_ensemble(0.0, 1, K, T)
            vg, _ = solve_hjb(p, Graphon.constant(0.0), 0.5, ens, x_grid)
            vals.append(np.interp(0.7, x_grid, vg.values[0]))
        c1, c2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert 0.3 <= c2 / c1 <= 0.7


class TestPolicy:
    def test_policy_lipschitz_constant_policy(self):
        times = np.linspace(0, 1, 4)
        x = np.linspace(-1, 1, 11)
        pol = Policy(np.zeros((4, 11)), x, times, (-1, 1))
        assert policy_lipschitz(pol) == 0.0

    def test_policy_lipschitz_clamp_table(self):
        times = np.linspace(0, 1, 3)
        x = np.linspace(-2, 2, 41)
        table = np.tile(np.clip(x, -1, 1), (3, 1))
        pol = Policy(table, x, times, (-1, 1))
        assert policy_lipschitz(pol) == pytest.approx(1.0)

    def test_time_piecewise_constant_eval(self):
        times = np.array([0.0, 0.5, 1.0])
        x = np.linspace(-1, 1, 3)
        table = np.array([[0.1] * 3, [0.2] * 3, [0.3] * 3])
        pol = Policy(table, x, times, (-1, 1))
        assert pol(0.49, 0.0) == pytest.approx(0.1)
        assert pol(0.5, 0.0) == pytest.approx(0.2)
        assert pol(2.0, 0.0) == pytest.approx(0.3)

    def test_csv_exports(self, tmp_path):
        from gmfg import ValueGrid
        from gmfg.artifacts import index_columns
        from gmfg.cli import write_csv

        times = np.linspace(0, 1, 3)
        x = np.linspace(-1, 1, 4)
        table = np.array([[0.0, 0.1, -1.0 / 3.0, 1.0],
                          [1e-300, -0.0, 0.5, 2.0 / 3.0],
                          [-1.0, 0.25, 1e-7, 0.0]])
        pol = Policy(table, x, times, (-1, 1))
        pol.to_csv(tmp_path / "pol.csv")
        vg = ValueGrid(np.vstack([table[:2], np.zeros(4)]), x, times)
        vg.to_csv(tmp_path / "val.csv")
        for name in ("pol.csv", "val.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "t_index,x_index,value"
            assert len(lines) == 1 + 3 * 4
        rows = (tmp_path / "pol.csv").read_bytes().splitlines(keepends=True)[1:]
        # per-value loop reference for the vectorized row format
        assert rows == [f"{k},{j},{v:.17g}\r\n".encode()
                        for k, row in enumerate(table) for j, v in enumerate(row)]
        # the same table through the ensemble export (table rows as vertices,
        # columns as one-atom time nodes) and through the CLI writer
        ens = MeasureEnsemble(table[:, :, None], np.ones(1), np.linspace(0, 1, 4))
        ens.to_csv(tmp_path / "ens.csv")
        ens_rows = (tmp_path / "ens.csv").read_bytes().splitlines(keepends=True)[1:]
        assert [r.rsplit(b",", 1)[0] + b"\r\n" for r in ens_rows] == rows
        write_csv(tmp_path / "cli.csv", ["t_index", "x_index", "value"],
                  index_columns(table), {"scenario_hash": "abc"})
        cli_lines = (tmp_path / "cli.csv").read_bytes().splitlines(keepends=True)
        assert cli_lines[0] == b"# scenario_hash=abc\r\n"
        assert cli_lines[2:] == rows


class TestEulerMaruyama:
    def test_constant_drift_matches_closed_form(self):
        from gmfg.control import euler_maruyama

        gen = np.random.default_rng(5)
        x0 = gen.normal(size=6)
        noise = gen.standard_normal((6, 9))
        dt, sigma, c = 0.05, 0.7, -1.3
        seen = []

        def drift(k, x):
            seen.append(k)
            return np.full_like(x, c)

        paths = euler_maruyama(x0, noise, dt, sigma, drift)
        assert seen == list(range(9))
        assert paths.shape == (6, 10)
        steps = np.arange(10)
        expected = (x0[:, None] + steps * c * dt
                    + sigma * np.sqrt(dt) * np.concatenate(
                        [np.zeros((6, 1)), np.cumsum(noise, axis=1)], axis=1))
        np.testing.assert_allclose(paths, expected, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def solved():
    # drift u, cost (x - z)^2 + u^2 against a frozen dirac ensemble
    p = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                    Constant(1.0), Constant(0.0), Constant(0.0),
                                    (-1, 1), 0.3, 1.0)
    K = 160
    ens = dirac_ensemble(0.0, 2, K, 1.0)
    x_grid = np.linspace(-3, 3, 241)
    fl = frozen_fields(p, Graphon.constant(0.0), 0.25, ens, x_grid)
    vg, pol = solve_hjb(p, Graphon.constant(0.0), 0.25, ens, x_grid, fields=fl)
    return p, fl, vg, pol


class TestRolloutConsistency:
    def test_rollout_matches_value(self, solved):
        p, fl, vg, pol = solved
        x0 = 1.0
        mean, se = rollout_cost(p, fl, pol, x0, 10_000, seed=7)
        dx = vg.x_grid[1] - vg.x_grid[0]
        dt = vg.times[1] - vg.times[0]
        v0 = vg.at(0, x0)
        assert abs(mean - v0) <= 3 * se + 5 * max(dx, dt)

    def test_policy_dominates_fixed_comparators(self, solved):
        p, fl, vg, pol = solved
        x0 = 1.0
        mean_opt, se_opt = rollout_cost(p, fl, pol, x0, 10_000, seed=7)
        gen = np.random.default_rng(3)
        comparators = [np.full_like(pol.values, -1.0), np.full_like(pol.values, 1.0),
                       np.zeros_like(pol.values)]
        for _ in range(2):
            anchor = gen.uniform(-1, 1, pol.x_grid.size)
            comparators.append(np.tile(np.clip(anchor, -1, 1), (pol.values.shape[0], 1)))
        for table in comparators:
            alt = Policy(table, pol.x_grid, pol.times, pol.bounds)
            mean_alt, se_alt = rollout_cost(p, fl, alt, x0, 10_000, seed=7)
            assert mean_opt <= mean_alt + 3 * (se_opt + se_alt)


class TestGridLookup:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), lo=st.floats(-50, 50), width=st.floats(1e-3, 100),
           n_rows=st.integers(1, 4), data=st.data())
    def test_matches_np_interp_bit_for_bit(self, n, lo, width, n_rows, data):
        from hypothesis.extra.numpy import arrays

        xp = np.linspace(lo, lo + width, n)
        fp = data.draw(arrays(float, (n_rows, n),
                              elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
        inside = np.asarray(data.draw(st.lists(st.floats(0, 1), max_size=20)), float)
        outside = np.asarray(data.draw(st.lists(st.floats(1e-9, 1e3), max_size=5)), float)
        x = np.concatenate([
            lo + width * inside,                       # inside the grid
            xp,                                        # on every node
            [xp[0], xp[-1], np.nextafter(xp[0], np.inf),
             np.nextafter(xp[-1], -np.inf)],           # exactly at and next to the ends
            xp[0] - outside, xp[-1] + outside,         # outside both ends
            [np.nextafter(xp[0], -np.inf), np.nextafter(xp[-1], np.inf)],
        ])
        rows = data.draw(arrays(np.intp, x.shape, elements=st.integers(0, n_rows - 1)))
        look = GridLookup(xp, x, rows)
        expected = np.array([np.interp(xi, xp, fp[r]) for xi, r in zip(x, rows)])
        assert np.array_equal(look(fp), expected)
        assert look.escaped == np.count_nonzero((x < xp[0]) | (x > xp[-1]))

    def test_scalar_point_and_one_row_table(self):
        xp = np.linspace(-1.0, 1.0, 5)
        fp = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        assert GridLookup(xp, 0.25)(fp) == np.interp(0.25, xp, fp)
        assert GridLookup(xp, 3.0)(fp) == 16.0

    def test_non_uniform_grid_rejected(self):
        from gmfg import GridError

        x = np.array([0.0, 0.1, 1.0])
        with pytest.raises(GridError):
            Policy(np.zeros((2, 3)), x, np.linspace(0, 1, 2), (-1, 1))
