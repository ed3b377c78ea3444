"""Benchmark workloads: scenario generation and output checks.

Each workload copies a scenario template from ``demos/scenarios/``, applies
its size changes, writes the benchmark seed into ``seeds.master`` and runs
one CLI subcommand on it. Its check reads the artifacts back and returns a
list of problems; an empty list means the run is correct. Every check must
hold on any seed.

Size changes against the shipped templates:

* ``enash_ladder`` runs ``ladder.replications`` = 2 instead of 20. As
  shipped one run takes about 116 s on a 2-core machine, too long to repeat;
  two replications is the fewest that gives finite standard errors.
* ``lq_fine`` refines the grid from M=16, K=200 to M=64, K=800. As shipped
  the work takes 0.15 s, below timer noise.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCENARIO_DIR = os.path.join("demos", "scenarios")

ENASH_REPLICATIONS = 2
LQ_GRID = {"M": 64, "K": 800}
RICCATI_TOL = 1e-8
# Final-time ensemble means may sit this many noise floors (3/sqrt(R))
# away from 0, the mean of the symmetric tracking problem.
MEAN_FLOORS = 2.0
# The reported Nash gap may be at most this share of the equilibrium cost.
GAP_SHARE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    template: str
    resize: Callable[[dict], None]
    check: Callable[[str, dict], list]

    def template_path(self, root):
        return os.path.join(root, SCENARIO_DIR, self.template)

    def scenario(self, root, seed=None):
        """The scenario document for ``seed`` (the template's own if None)."""
        with open(self.template_path(root)) as fh:
            raw = json.load(fh)
        self.resize(raw)
        if seed is not None:
            raw.setdefault("seeds", {})["master"] = int(seed)
        return raw


def read_csv(path):
    """Header and float rows of a CLI CSV artifact ('#' metadata skipped)."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines()
                 if line and not line.startswith("#")]
    header = lines[0].split(",")
    body = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 \
        else np.empty((0, len(header)))
    return header, body


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite_nonneg(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


# -- mfg_tracking ------------------------------------------------------------

def _resize_none(raw):
    pass


def check_mfg(out_dir, raw):
    problems = []
    grids = raw["grids"]
    M, K = grids["M"], grids["K"]
    lo, hi = raw["problem"]["control_set"]
    doc = _read_json(os.path.join(out_dir, "trace.json"))
    if doc.get("converged") is not True:
        problems.append("trace.json: not converged")
    trace = doc.get("trace") or []
    if not trace or not trace[-1]["distance"] < doc.get("tolerance", -math.inf):
        problems.append("trace.json: last distance not below the tolerance")

    header, rows = read_csv(os.path.join(out_dir, "ensemble.csv"))
    if header != ["vertex_index", "time_index", "atom", "weight"]:
        problems.append(f"ensemble.csv: unexpected header {header}")
        return problems
    cell = rows[:, 0].astype(int) * (K + 1) + rows[:, 1].astype(int)
    sums = np.bincount(cell, weights=rows[:, 3], minlength=M * (K + 1))
    if sums.size != M * (K + 1) or np.abs(sums - 1.0).max() > 1e-9:
        problems.append("ensemble.csv: some (vertex, time) weights do not sum to 1")
    floor = 3.0 / math.sqrt(grids["R"])
    final = rows[:, 1].astype(int) == K
    means = np.bincount(rows[final, 0].astype(int),
                        weights=rows[final, 2] * rows[final, 3], minlength=M)
    if np.abs(means).max() > MEAN_FLOORS * floor:
        problems.append(f"ensemble.csv: final-time mean {np.abs(means).max():.4g} "
                        f"exceeds {MEAN_FLOORS:g} noise floors ({floor:.4g})")

    for v in range(M):
        path = os.path.join(out_dir, f"policy_{v:03d}.csv")
        if not os.path.exists(path):
            problems.append(f"policy_{v:03d}.csv missing")
            continue
        _, pol = read_csv(path)
        values = pol[:, 2]
        if pol.shape[0] != (K + 1) * grids["N_x"]:
            problems.append(f"policy_{v:03d}.csv: {pol.shape[0]} rows")
        if values.min() < lo or values.max() > hi:
            problems.append(f"policy_{v:03d}.csv: value outside [{lo}, {hi}]")
    return problems


# -- enash_ladder ------------------------------------------------------------

def _resize_enash(raw):
    raw["ladder"]["replications"] = ENASH_REPLICATIONS


def check_enash(out_dir, raw):
    problems = []
    doc = _read_json(os.path.join(out_dir, "report.json"))
    rungs = doc.get("rungs") or []
    expected = [(mk, mk * size) for mk, size in raw["ladder"]["rungs"]]
    got = [(r.get("M_k"), r.get("N")) for r in rungs]
    if got != expected:
        problems.append(f"report.json: rungs {got}, expected {expected}")
    max_outer = raw["tolerances"]["max_outer"]
    for r in rungs:
        label = f"rung M_k={r.get('M_k')}"
        for key in ("eps1", "eps2", "eps3", "gap"):
            for name in (key, key + "_se"):
                if not _finite_nonneg(r.get(name)):
                    problems.append(f"{label}: {name}={r.get(name)!r} not finite and >= 0")
        if not r.get("solution_iterations", math.inf) <= max_outer:
            problems.append(f"{label}: {r.get('solution_iterations')} passes > {max_outer}")
        cost = r.get("equilibrium_cost")
        if not _finite_nonneg(cost):
            problems.append(f"{label}: equilibrium_cost={cost!r}")
        elif _finite_nonneg(r.get("gap")) and r["gap"] > GAP_SHARE * cost:
            problems.append(f"{label}: gap {r['gap']:.4g} above {GAP_SHARE:g} x "
                            f"equilibrium cost {cost:.4g}")
    return problems


# -- lq_fine -----------------------------------------------------------------

def _resize_lq(raw):
    raw["grids"].update(LQ_GRID)


def check_lq(out_dir, raw):
    problems = []
    M, K = raw["grids"]["M"], raw["grids"]["K"]
    T = raw["problem"]["T"]
    diag = _read_json(os.path.join(out_dir, "diagnostics.json"))
    if not diag.get("c_lambda", math.inf) < 1.0:
        problems.append(f"diagnostics.json: c_lambda={diag.get('c_lambda')!r} not < 1")
    if not diag.get("residual", math.inf) <= raw["tolerances"]["lq_tol"]:
        problems.append(f"diagnostics.json: residual={diag.get('residual')!r} above tolerance")

    _, ric = read_csv(os.path.join(out_dir, "riccati.csv"))
    if ric.shape[0] != K + 1:
        problems.append(f"riccati.csv: {ric.shape[0]} rows, expected {K + 1}")
    elif np.abs(ric[:, 4] - np.tanh(T - ric[:, 1])).max() > RICCATI_TOL:
        problems.append("riccati.csv: off the tanh(T - t) oracle by more than "
                        f"{RICCATI_TOL:g}")
    _, mf = read_csv(os.path.join(out_dir, "meanfield.csv"))
    if mf.shape[0] != M * (K + 1):
        problems.append(f"meanfield.csv: {mf.shape[0]} rows, expected {M * (K + 1)}")
    if not np.all(np.isfinite(mf)):
        problems.append("meanfield.csv: non-finite values")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("mfg_tracking", "solve-gmfg", "tracking_mfg.json", _resize_none, check_mfg),
    Workload("enash_ladder", "simulate-enash", "enash_ladder.json", _resize_enash,
             check_enash),
    Workload("lq_fine", "solve-lq", "lq_uniform_attachment.json", _resize_lq, check_lq),
)}
