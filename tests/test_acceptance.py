"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Expensive solves are shared through module-scoped
fixtures; stated runtime budgets are asserted on the artifact's own work.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.integrate import simpson
from scipy.optimize import linprog

from gmfg import (Constant, GMFGProblem, Graphon, Measure1D, Poly2,
                  ProblemFunctions, cell_average_step, cut_norm_grid_bound,
                  frozen_fields, h11_deviation, holder_modulus,
                  normal_quantile_measure, picard_solve, propagate_closed_loop,
                  rollout_cost,
                  run_ladder, sample_step_graphon, solve_hjb, step_difference,
                  w1)
from gmfg.control import Policy
from gmfg.lq import LQParams, lq_consistency_vs_simulation, solve_lq_fixed_point, solve_riccati
from gmfg.measures import MeasureEnsemble


CRITERION_LINES = []


def _criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE criterion {number}: {status} - {detail}"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, f"criterion {number}: {detail}"


tracking = Poly2(xx=1.0, xy=-2.0, yy=1.0)


# ---------------------------------------------------------------------------
# shared expensive solves


def acceptance_functions():
    # f0 = 0, f = 1, l1 = (x-y)^2, l2 = 0, l3 = 0, l4 = 1, U = [-1,1]
    return ProblemFunctions.structured(Constant(0.0), Constant(1.0), tracking,
                                       Constant(0.0), Constant(0.0), Constant(1.0),
                                       (-1.0, 1.0), 0.3, 0.5)


@pytest.fixture(scope="module")
def acceptance_solution():
    problem = GMFGProblem(acceptance_functions(), Graphon.uniform_attachment(),
                          normal_quantile_measure(0.0, 0.3, 129),
                          M=8, K=64, N_x=201, R=10_000, seed=2024)
    start = time.time()
    solution = picard_solve(problem, tol=0.05, min_outer=5, max_outer=30)
    return problem, solution, time.time() - start


@pytest.fixture(scope="module")
def contraction_solution():
    # the mean reversion in f0 reads the own-vertex law beyond its mean, so
    # the map keeps contracting; on the acceptance problem the policy reads
    # only the own-vertex mean, which an exact symmetric law keeps at 0, and
    # the map lands on its fixed point in one pass
    problem = GMFGProblem(ladder_functions(), Graphon.uniform_attachment(),
                          normal_quantile_measure(0.0, 0.3, 129),
                          M=8, K=64, N_x=201, R=10_000, seed=2024)
    start = time.time()
    solution = picard_solve(problem, tol=0.05, min_outer=5, max_outer=30)
    return problem, solution, time.time() - start


def ladder_functions():
    # bounded intra mean reversion keeps the agent-to-agent CLT term alive
    revert = Poly2(x=-1.0, y=1.0, clip=(-2.0, 2.0))
    return ProblemFunctions.structured(revert, Constant(1.0), tracking,
                                       Constant(0.5), Constant(0.0), Constant(1.0),
                                       (-1.0, 1.0), 0.3, 0.5)


@pytest.fixture(scope="module")
def ladder_results():
    # A mildly sloped kernel keeps every vertex type comparable across the
    # rungs: with a strongly sloped kernel the larger graphs reach extreme
    # low-connectivity vertices the small graphs never see, which pollutes
    # the cluster-size scaling of eps1 with a vertex-type effect.
    kernel = Graphon.from_table([[0.6, 0.45], [0.45, 0.3]])

    def make_problem(M):
        return GMFGProblem(ladder_functions(), kernel,
                           normal_quantile_measure(0.0, 0.3, 129),
                           M=M, K=64, N_x=201, R=4000, seed=101)

    start = time.time()
    results = list(run_ladder(make_problem, [(2, 25), (4, 50), (8, 100)],
                              n_reps=20, iota=0,
                              solver_kwargs={"tol": 0.08, "max_outer": 25}))
    return results, time.time() - start


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_riccati():
    solve_time = 0.0
    # scalar benchmark against tanh(T - t)
    p1 = LQParams([[0.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]], [[1.0]],
                  [[1.0]], [[0.0]], 0.0, 0.0, [0.0], [0.0], 1.0,
                  Graphon.constant(0.0), 2, 200)
    t0 = time.time()
    ric1 = solve_riccati(p1)
    solve_time += time.time() - t0
    err_scalar = float(np.abs(ric1.Pi[:, 0, 0] - np.tanh(1.0 - p1.times)).max())

    # uncontrolled matrix case against the expm-quadrature oracle
    A = np.array([[-1.0, 0.3], [-0.2, -0.8]])
    C = np.array([[0.6, 0.1], [0.0, 0.4]])
    Q = C.T @ C
    Q_T = np.array([[0.3, 0.1], [0.1, 0.5]])
    p2 = LQParams(A, np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((2, 2)),
                  np.zeros((2, 1)), Q, [[1.0]], Q_T, 0.0, 0.0, np.zeros(2),
                  np.zeros(2), 1.2, Graphon.constant(0.0), 2, 150)
    t0 = time.time()
    ric2 = solve_riccati(p2)
    solve_time += time.time() - t0

    def oracle(t):
        s = np.linspace(t, p2.T, 4001)
        vals = np.array([expm(A.T * (u - t)) @ Q @ expm(A * (u - t)) for u in s])
        return simpson(vals, x=s, axis=0) + expm(A.T * (p2.T - t)) @ Q_T @ expm(A * (p2.T - t))

    err_matrix = max(float(np.abs(ric2.Pi[k] - oracle(p2.times[k])).max())
                     for k in (0, 60, 120))
    ok = err_scalar < 1e-8 and err_matrix < 1e-7 and solve_time < 1.0
    _criterion(1, ok, f"scalar err {err_scalar:.2e} (<1e-8), matrix err "
                      f"{err_matrix:.2e} (<1e-7), solve time {solve_time:.2f}s (<1s)")


def lp_transport_cost(mu, nu):
    n, m = len(mu), len(nu)
    cost = np.abs(mu.atoms[:, None] - nu.atoms[None, :]).reshape(-1)
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i].reshape(n, m)[i, :] = 1.0
    for j in range(m):
        A_eq[n + j].reshape(n, m)[:, j] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def test_criterion_02_w1_oracle():
    gen = np.random.default_rng(7)
    start = time.time()
    worst = 0.0
    for _ in range(500):
        def rand_measure():
            n = gen.integers(1, 7)
            weights = gen.uniform(0.05, 1.0, n)
            return Measure1D(gen.uniform(-5, 5, n), weights / weights.sum())
        mu, nu = rand_measure(), rand_measure()
        worst = max(worst, abs(w1(mu, nu) - lp_transport_cost(mu, nu)))
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _criterion(2, ok, f"500 random pairs, max |w1 - LP| = {worst:.2e} (<1e-9), "
                      f"{elapsed:.1f}s (<10s)")


def test_criterion_03_lq_fixed_point():
    start = time.time()
    p = LQParams([[0.0]], [[1.0]], [[0.0]], [[0.2]], [[0.5]], [[1.0]], [[1.0]],
                 [[0.0]], 0.0, 0.5, [1.0], [1.0], 1.0,
                 Graphon.uniform_attachment(), 16, 200)
    sol = solve_lq_fixed_point(p, tol=1e-9)
    gen = np.random.default_rng(3)
    sol_alt = solve_lq_fixed_point(p, tol=1e-9,
                                   x_init=gen.normal(size=sol.xbar.shape))
    init_gap = float(np.abs(sol.xbar - sol_alt.xbar).max())
    report = lq_consistency_vs_simulation(p, sol, R_mc=10_000, seed=5)
    elapsed = time.time() - start
    ok = (sol.c_lambda < 1.0 and sol.residual < 1e-8 and init_gap < 1e-7
          and report["passed"] and elapsed < 30.0)
    _criterion(3, ok, f"c_lambda {sol.c_lambda:.3f} (<1), residual "
                      f"{sol.residual:.1e} (<1e-8), init gap {init_gap:.1e} (<1e-7), "
                      f"MC dev {report['max_deviation']:.3f} within band, "
                      f"{elapsed:.1f}s (<30s)")


def test_criterion_04_classical_mfg_reduction():
    start = time.time()
    functions = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                            Constant(1.0), Constant(0.0), Constant(0.0),
                                            (-1.0, 1.0), 0.3, 0.5)
    problem = GMFGProblem(functions, Graphon.constant(0.0),
                          normal_quantile_measure(0.0, 0.3, 129),
                          M=8, K=64, N_x=201, R=5000, seed=77)
    solution = picard_solve(problem, tol=0.08, max_outer=25)
    floor = 3.0 / math.sqrt(problem.R)
    worst = 0.0
    for v in range(1, problem.M):
        for k in range(0, problem.K + 1, 8):
            worst = max(worst, w1(solution.ensemble.get(0, k),
                                  solution.ensemble.get(v, k)))
    elapsed = time.time() - start
    ok = worst < 2 * floor and elapsed < 120.0
    _criterion(4, ok, f"zero graphon: max cross-vertex W1 {worst:.4f} "
                      f"(< {2 * floor:.4f}), {elapsed:.1f}s (<120s)")


def test_criterion_05_picard_contraction(contraction_solution):
    problem, solution, elapsed = contraction_solution
    dists = [e["distance"] for e in solution.trace]
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    consecutive = sum(1 for r in ratios[:3] if r < 1.0)
    final_residual = dists[-1]
    floor = 3.0 / math.sqrt(problem.R)
    ok = (len(ratios) >= 3 and consecutive == 3
          and final_residual < solution.tol + floor
          and elapsed < 300.0)
    _criterion(5, ok, f"ratios {[f'{r:.3f}' for r in ratios[:3]]} all <1, final "
                      f"residual {final_residual:.2e} (< tol {solution.tol:.3f} + "
                      f"floor {floor:.3f}), {elapsed:.0f}s (<300s)")


def test_criterion_06_hjb_rollout_consistency():
    start = time.time()
    functions = ProblemFunctions.structured(Constant(1.0), Constant(0.0), tracking,
                                            Constant(1.0), Constant(0.0), Constant(0.0),
                                            (-1.0, 1.0), 0.3, 1.0)
    K = 160
    times = np.linspace(0.0, 1.0, K + 1)
    ens = MeasureEnsemble(np.zeros((2, K + 1, 1)), times)
    x_grid = np.linspace(-3.0, 3.0, 241)
    g0 = Graphon.constant(0.0)
    fields = frozen_fields(functions, g0, 0.25, ens, x_grid)
    (values,), (table,) = solve_hjb(functions, g0, 0.25, ens, x_grid, fields=fields)
    pol = Policy(table, x_grid, times, (functions.u_min, functions.u_max))
    x0 = 1.0
    mean, se = rollout_cost(functions, fields, pol, x0, 10_000, seed=9)
    tol = 3 * se + 5 * max(float(x_grid[1] - x_grid[0]), float(times[1]))
    gap = abs(mean - np.interp(x0, x_grid, values[0]))
    dominated = 0
    gen = np.random.default_rng(11)
    comparators = [np.full_like(pol.values, -1.0), np.full_like(pol.values, 1.0),
                   np.zeros_like(pol.values)]
    for _ in range(2):
        anchor = np.clip(gen.uniform(-1, 1, x_grid.size), -1, 1)
        comparators.append(np.tile(anchor, (K + 1, 1)))
    for table in comparators:
        alt = Policy(table, x_grid, times, pol.bounds)
        alt_mean, alt_se = rollout_cost(functions, fields, alt, x0, 10_000, seed=9)
        if mean <= alt_mean + 3 * (se + alt_se):
            dominated += 1
    elapsed = time.time() - start
    ok = gap <= tol and dominated == 5 and elapsed < 60.0
    _criterion(6, ok, f"|rollout - V(0,x0)| = {gap:.4f} (<= {tol:.4f}), dominates "
                      f"{dominated}/5 comparison policies, {elapsed:.0f}s (<60s)")


def test_criterion_07_enash_ladder(ladder_results):
    results, elapsed = ladder_results
    assert all("seconds" not in r for r in results)   # only a timed ladder reports them
    eps1 = [r["eps1"] for r in results]
    se1 = [r["eps1_se"] for r in results]
    eps2 = [r["eps2"] for r in results]
    se2 = [r["eps2_se"] for r in results]
    gaps = [r["gap"] for r in results]
    gse = [r["gap_se"] for r in results]
    sizes = [r["cluster_size"] for r in results]

    def decreases(vals, ses):
        return all(vals[i + 1] < vals[i] + 2 * math.hypot(ses[i], ses[i + 1])
                   for i in range(len(vals) - 1))

    slope = float(np.polyfit(np.log(sizes), np.log(eps1), 1)[0])
    ok = (decreases(eps1, se1) and decreases(eps2, se2)
          and -0.8 <= slope <= -0.2
          and decreases(gaps, gse)
          and elapsed < 900.0)
    detail = (f"eps1 {[f'{v:.4f}' for v in eps1]}, eps2 {[f'{v:.4f}' for v in eps2]}, "
              f"slope {slope:.2f} in [-0.8,-0.2], gap {[f'{v:.4f}' for v in gaps]}, "
              f"{elapsed:.0f}s (<900s)")
    _criterion(7, ok, detail)


def test_criterion_08_graphon_diagnostics():
    start = time.time()
    g = Graphon.uniform_attachment()
    devs, cuts = [], []
    for M in (4, 8, 16, 32):
        sampled = sample_step_graphon(g, M)
        devs.append(h11_deviation(sampled, g, refinement=8))
        cuts.append(cut_norm_grid_bound(step_difference(
            sampled, cell_average_step(g, M, refinement=8)), seed=1))
    elapsed = time.time() - start
    ok = (all(a > b for a, b in zip(devs, devs[1:]))
          and all(a > b for a, b in zip(cuts, cuts[1:]))
          and elapsed < 10.0)
    _criterion(8, ok, f"h11 {[f'{v:.5f}' for v in devs]} strictly down, cut bound "
                      f"{[f'{v:.5f}' for v in cuts]} strictly down, "
                      f"{elapsed:.1f}s (<10s)")


def test_criterion_09_holder_diagnostic(acceptance_solution):
    # the fit reads the mean increments of coupled paths under the solved
    # policy, which move like sigma sqrt(h) whatever the path count
    problem, solution, _ = acceptance_solution
    c_h, eta = holder_modulus(propagate_closed_loop(problem, solution.policy,
                                                    solution.ensemble))
    ok = 0.3 <= eta <= 1.0
    _criterion(9, ok, f"fitted eta {eta:.3f} in [0.3, 1.0] (C_h {c_h:.3f}) at "
                      f"R={problem.R}, K={problem.K}")


def test_criterion_10_determinism(tmp_path):
    from gmfg.cli import main

    nonlinear = {
        "kind": "nonlinear",
        "problem": {
            "form": "structured",
            "f0": {"kind": "constant", "c": 1.0},
            "f": {"kind": "constant", "c": 0.0},
            "l1": {"kind": "poly2", "xx": 1.0, "xy": -2.0, "yy": 1.0},
            "l2": {"kind": "constant", "c": 1.0},
            "l3": 0.0, "l4": 0.0,
            "control_set": [-1.0, 1.0], "sigma": 0.3, "T": 0.25,
            "initial": {"kind": "dirac", "x": 0.0},
        },
        "graphon": {"kind": "uniform_attachment"},
        "grids": {"M": 2, "K": 8, "N_x": 61, "R": 120,
                  "output_atoms": 8},
        "seeds": {"master": 5},
        "tolerances": {"picard_tol": 0.3, "max_outer": 10},
        "ladder": {"rungs": [[2, 3]], "replications": 2},
        "diagnostics": {"m_values": [4, 8], "refinement": 4},
    }
    lq = {
        "kind": "lq",
        "problem": {"A": 0.0, "B": 1.0, "D0": 0.0, "D": 0.2, "Sigma": 0.5,
                    "Q": 1.0, "R": 1.0, "Q_T": 0.0, "gamma0": 0.0,
                    "gamma": 0.5, "eta": 1.0, "x0": 1.0, "T": 1.0},
        "graphon": {"kind": "uniform_attachment"},
        "grids": {"M": 4, "K": 40},
        "seeds": {"master": 5},
    }
    cfg_nl = tmp_path / "nl.json"
    cfg_nl.write_text(json.dumps(nonlinear))
    cfg_lq = tmp_path / "lq.json"
    cfg_lq.write_text(json.dumps(lq))
    jobs = [("solve-lq", cfg_lq), ("solve-gmfg", cfg_nl),
            ("simulate-enash", cfg_nl), ("graphon-diag", cfg_nl)]
    identical = True
    for name, cfg in jobs:
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            code = main([name, "--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{name} failed"
            outs.append(out)
        import os
        for fname in sorted(os.listdir(outs[0])):
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                identical = False
    _criterion(10, identical, "all four subcommands byte-identical on rerun "
                              "with fixed config and seed")
