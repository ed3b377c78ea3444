"""Command-line front end.

    gmfg solve-lq       --config FILE --out DIR
    gmfg solve-gmfg     --config FILE --out DIR
    gmfg simulate-enash --config FILE --out DIR [--ladder 2:25,4:50] [--dump-paths]
                        [--perturbations]
    gmfg graphon-diag   --config FILE --out DIR

Outputs are machine-readable: CSV in the shared format of
:mod:`gmfg.artifacts` and JSON with stable key order. Reruns with the same
config and seed are byte-identical; wall-clock timings (a command's
``wall_time``, each Picard trace entry's ``phase_seconds`` and each ladder
rung's per-phase ``seconds``) are only emitted when GMFG_TIMING=1.
Exit codes: 0 success; 1 input error, or any other package error; 2
convergence failure (``solve-gmfg`` writes its trace) or numerical
failure. Every package error leaves as ``gmfg:`` lines on stderr, never
as a traceback. ``simulate-enash`` checks the whole ladder before the
first solve, then runs one rung at a time and dumps each as it ends: a
ladder whose solve fails at rung k exits 2 with no ``report.json``,
leaving only the ``--dump-paths`` files of the rungs before k.
"""

import argparse
import os
import sys
import time

from . import __version__
from .artifacts import atomic_write, index_columns, json_text, write_csv
from .errors import ConfigError, ConvergenceError, GmfgError, NumericalError
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
    atomic_write(path, [json_text(doc), "\n"])


def _timing():
    return os.environ.get("GMFG_TIMING") == "1"


def _maybe_time(started):
    return {"wall_time": time.time() - started} if _timing() else {}


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
        "Rinv_Bt": p.Rinv @ p.B.T,
        "note": "control = -Rinv_Bt (pi[t] x + s[vertex, t]), with pi from "
                "riccati.csv and s from meanfield.csv",
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
        sol = picard_solve(problem, **scenario.solver_settings, timing=_timing())
    except ConvergenceError as exc:
        payload = {"converged": False, "trace": exc.trace, "error": str(exc),
                   "distance_floor": problem.distance_floor}
        payload.update(_maybe_time(started))
        write_json(os.path.join(out_dir, "trace.json"), scenario, payload)
        raise
    comp = sol.ensemble.compress(scenario.output_atoms)
    v, k, _, atom, weight = index_columns(comp.atoms, comp.weights)
    write_csv(os.path.join(out_dir, "ensemble.csv"),
              ["vertex_index", "time_index", "atom", "weight"],
              [v, k, atom, weight], _meta(scenario))
    for v, table in enumerate(sol.policy):
        write_csv(os.path.join(out_dir, f"policy_{v:03d}.csv"),
                  ["t_index", "x_index", "value"], index_columns(table),
                  _meta(scenario))
    payload = {"converged": True, "trace": sol.trace, "tolerance": sol.tol,
               "distance_floor": problem.distance_floor}
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
    ladder = _parse_ladder(args.ladder) if args.ladder else scenario.rungs
    results = []
    for rung in run_ladder(
            scenario.build_problem, ladder, n_reps=scenario.replications,
            iota=scenario.deviator, solver_kwargs=scenario.solver_settings,
            with_perturbations=args.perturbations, timing=_timing()):
        # a view of the rung's whole System A stack, gone before the next solve
        paths = rung.pop("system_a_paths")
        if args.dump_paths:
            write_csv(os.path.join(
                out_dir, f"trajectories_M{rung['M_k']}_n{rung['cluster_size']}.csv"),
                ["agent", "time_index", "value"], index_columns(paths),
                _meta(scenario))
        del paths
        results.append(rung)
    payload = {"rungs": results, "deviator": scenario.deviator,
               "replications": scenario.replications}
    payload.update(_maybe_time(started))
    write_json(os.path.join(out_dir, "report.json"), scenario, payload)
    return 0


def cmd_graphon_diag(scenario, out_dir, args):
    g = scenario.graphon
    rows = []
    for M in scenario.m_values:
        sampled = sample_step_graphon(g, M)
        averaged = cell_average_step(g, M, scenario.refinement)
        dev = h11_deviation(sampled, g, scenario.refinement)
        cut = cut_norm_grid_bound(step_difference(sampled, averaged),
                                  seed=scenario.seed)
        rows.append([M, dev, cut])
        write_csv(os.path.join(out_dir, f"step_M{M}.csv"),
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


def _seed_override():
    value = os.environ.get("GMFG_SEED")
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"GMFG_SEED must be an integer, got {value!r}") from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.config, seed_override=_seed_override())
        return dispatch(args.command, scenario, args.out, args)
    except GmfgError as exc:
        for problem in getattr(exc, "problems", [exc]):
            print(f"gmfg: {problem}", file=sys.stderr)
        return 2 if isinstance(exc, (ConvergenceError, NumericalError)) else 1
    except OSError as exc:
        print(f"gmfg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
