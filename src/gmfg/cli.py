"""Command-line front end.

    gmfg solve-lq       --config FILE --out DIR
    gmfg solve-gmfg     --config FILE --out DIR
    gmfg simulate-enash --config FILE --out DIR [--ladder 2:25,4:50] [--dump-paths]
                        [--perturbations]
    gmfg graphon-diag   --config FILE --out DIR

Outputs are machine-readable: CSV in the shared format of
:mod:`gmfg.artifacts` and JSON with stable key order. Reruns with the same
config and seed are byte-identical; wall-clock timings are only emitted
when GMFG_TIMING=1.
Exit codes: 0 success, 1 input error, 2 convergence failure (trace written).
"""

import argparse
import os
import sys
import time

from . import __version__
from .artifacts import atomic_write, index_columns, json_text, write_csv
from .errors import ConfigError, ConvergenceError
from .graphon import (cell_average_step, cut_norm_grid_bound, h11_deviation,
                      sample_step_graphon, step_difference)
from .lq import solve_lq_fixed_point
from .population import run_ladder
from .scenario import parse_scenario
from .solver import picard_solve

def _meta(scenario):
    return {"scenario_hash": scenario.hash, "artifact_version": __version__}


def write_json(path, scenario, payload):
    doc = {"meta": _meta(scenario)}
    doc.update(payload)
    atomic_write(path, json_text(doc) + "\n")


def _maybe_time(started):
    if os.environ.get("GMFG_TIMING") == "1":
        return {"wall_time": time.time() - started}
    return {}


# -- subcommands -------------------------------------------------------------

def cmd_solve_lq(scenario, out_dir, args):
    started = time.time()
    p = scenario.build_lq()
    sol = solve_lq_fixed_point(p, tol=scenario.lq_tol)
    k, i, j, pi = index_columns(sol.riccati.Pi)
    write_csv(os.path.join(out_dir, "riccati.csv"),
              ["t_index", "time", "row", "col", "pi"],
              [k, p.times[k], i, j, pi], _meta(scenario))
    write_csv(os.path.join(out_dir, "meanfield.csv"),
              ["vertex_index", "time_index", "component", "xbar", "s"],
              index_columns(sol.xbar, sol.s), _meta(scenario))
    write_json(os.path.join(out_dir, "gains.json"), scenario, {
        "feedback_gain": sol.feedback_gain,
        "feedback_offset": sol.feedback_offset,
        "note": "control = -gain[t] x - offset[vertex, t]",
    })
    diag = {"c_lambda": sol.c_lambda, "iterations": sol.iterations,
            "residual": sol.residual, "changes": sol.changes}
    diag.update(_maybe_time(started))
    write_json(os.path.join(out_dir, "diagnostics.json"), scenario, diag)
    return 0


def cmd_solve_gmfg(scenario, out_dir, args):
    started = time.time()
    problem = scenario.build_problem()
    try:
        sol = picard_solve(problem, tol=scenario.picard_tol,
                           max_outer=scenario.max_outer, mode=scenario.mode,
                           min_outer=scenario.min_outer,
                           inner_tol=scenario.inner_tol)
    except ConvergenceError as exc:
        payload = {"converged": False, "trace": exc.trace,
                   "error": str(exc)}
        payload.update(_maybe_time(started))
        write_json(os.path.join(out_dir, "trace.json"), scenario, payload)
        print(f"solve-gmfg: {exc}", file=sys.stderr)
        return 2
    comp = sol.ensemble.compress(scenario.output_atoms)
    v, k, _, atom, weight = index_columns(comp.atoms, comp.weights)
    write_csv(os.path.join(out_dir, "ensemble.csv"),
              ["vertex_index", "time_index", "atom", "weight"],
              [v, k, atom, weight], _meta(scenario))
    for v, pol in enumerate(sol.policies):
        write_csv(os.path.join(out_dir, f"policy_{v:03d}.csv"),
                  ["t_index", "x_index", "value"], index_columns(pol.values),
                  _meta(scenario))
    payload = {"converged": True, "trace": sol.trace, "tolerance": sol.tol,
               "noise_floor": sol.noise_floor}
    payload.update(_maybe_time(started))
    write_json(os.path.join(out_dir, "trace.json"), scenario, payload)
    return 0


def _parse_ladder(text):
    """Rungs (M_k, cluster_size) of ``2:25,4:50``, each two positive ints."""
    try:
        rungs = [tuple(int(v) for v in rung.split(":"))
                 for rung in text.split(",")]
    except ValueError:
        rungs = []
    if not rungs or any(len(r) != 2 or min(r) < 1 for r in rungs):
        raise ConfigError("--ladder must look like 2:25,4:50,8:100")
    return rungs


def cmd_simulate_enash(scenario, out_dir, args):
    started = time.time()
    if scenario.kind != "nonlinear":
        raise ConfigError("simulate-enash needs a nonlinear scenario")
    ladder = (_parse_ladder(args.ladder) if args.ladder
              else [(mk, sz) for mk, sz in scenario.rungs])
    # a repeated rung reruns identical work and would share a dump file
    repeated = sorted({r for r in ladder if ladder.count(r) > 1})
    if repeated:
        raise ConfigError("ladder repeats rung(s) "
                          + ", ".join(f"{mk}:{sz}" for mk, sz in repeated))
    results = run_ladder(scenario.build_problem, ladder,
                         n_reps=scenario.replications, tol=scenario.picard_tol,
                         iota=scenario.deviator,
                         solver_kwargs={"max_outer": scenario.max_outer,
                                        "min_outer": scenario.min_outer,
                                        "mode": scenario.mode,
                                        "inner_tol": scenario.inner_tol},
                         R_law=scenario.R_law,
                         with_perturbations=args.perturbations)
    paths = [rung.pop("system_a_paths") for rung in results]
    payload = {"rungs": results, "deviator": scenario.deviator,
               "replications": scenario.replications}
    payload.update(_maybe_time(started))
    write_json(os.path.join(out_dir, "report.json"), scenario, payload)
    if args.dump_paths:
        for (mk, size), rung_paths in zip(ladder, paths):
            write_csv(os.path.join(out_dir, f"trajectories_M{mk}_n{size}.csv"),
                      ["agent", "time_index", "value"], index_columns(rung_paths),
                      _meta(scenario))
    return 0


def cmd_graphon_diag(scenario, out_dir, args):
    diag = scenario.raw.get("diagnostics") or {}
    m_values = diag.get("m_values", [4, 8, 16, 32])
    refinement = int(diag.get("refinement", 8))
    g = scenario.graphon
    rows = []
    for M in m_values:
        sampled = sample_step_graphon(g, int(M))
        averaged = cell_average_step(g, int(M), refinement)
        dev = h11_deviation(sampled, g, refinement)
        cut = cut_norm_grid_bound(step_difference(sampled, averaged),
                                  seed=scenario.seed)
        rows.append([int(M), dev, cut])
        write_csv(os.path.join(out_dir, f"step_M{int(M)}.csv"),
                  ["row", "col", "weight"], index_columns(sampled.matrix),
                  _meta(scenario))
    write_csv(os.path.join(out_dir, "h11.csv"),
              ["M", "h11_deviation", "cut_norm_bound"], list(zip(*rows)),
              _meta(scenario))
    return 0


_COMMANDS = {
    "solve-lq": cmd_solve_lq,
    "solve-gmfg": cmd_solve_gmfg,
    "simulate-enash": cmd_simulate_enash,
    "graphon-diag": cmd_graphon_diag,
}


def dispatch(command, scenario, out_dir, args):
    """Run one subcommand; outputs are written atomically into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    return _COMMANDS[command](scenario, out_dir, args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmfg",
        description="Graphon mean field game solvers and population experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve-lq", "closed-form linear-quadratic solve"),
            ("solve-gmfg", "fixed-point solve of the nonlinear game"),
            ("simulate-enash", "finite-population approximate-Nash ladder"),
            ("graphon-diag", "graphon discretization diagnostics")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", required=True, help="output directory")
        if name == "simulate-enash":
            cmd.add_argument("--dump-paths", action="store_true",
                             help="also write System A trajectories per rung")
            cmd.add_argument("--ladder", default=None,
                             help="override rungs, e.g. 2:25,4:50,8:100")
            cmd.add_argument("--perturbations", action="store_true",
                             help="include drift/cost perturbation estimates")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    seed_override = os.environ.get("GMFG_SEED")
    try:
        scenario = parse_scenario(args.config,
                                  seed_override=int(seed_override)
                                  if seed_override else None)
        return dispatch(args.command, scenario, args.out, args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"gmfg: {problem}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"gmfg: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gmfg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
