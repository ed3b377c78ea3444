"""Benchmark of the gmfg command-line subcommands.

One run of one workload, from the root of a source checkout:

    python3 perfbench/run.py --workload mfg_tracking --seed 7 --seconds 30 --trace 0

Each repetition is a fresh Python process (``perfbench/child.py``) that
imports ``gmfg`` from the checkout's ``src``, parses the generated scenario
and calls ``gmfg.cli.main``. Repetitions continue until ``--seconds`` would
be exceeded; every repetition's artifacts are checked. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics (medians over the
repetitions), with ``--trace 1`` the per-layer metrics from traced
repetitions, which alternate with untraced ones so that the tracing
overhead can be reported. The exit code is 1 if any repetition failed.

Every workload, untraced, several seeds, with median and quartiles:

    python3 perfbench/run.py --summary --runs 3 [--record FILE]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 4
# Two at least: a median, and in traced runs one untraced repetition.
MIN_REPS = 2
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# One BLAS thread per process keeps compute threads (the CLI pool) within nproc.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here (not a gmfg checkout, child crashed)."""


def child_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMFG_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Runner:
    """Fresh-process repetitions of one workload against one checkout."""

    def __init__(self, root, workload, seed, deadline):
        self.src = os.path.realpath(os.path.join(root, "src"))
        if not os.path.isfile(os.path.join(self.src, "gmfg", "cli.py")):
            raise BenchError(f"no gmfg sources under {self.src}")
        if not os.path.isfile(workload.template_path(root)):
            raise BenchError(f"missing scenario template {workload.template}")
        self.workload = workload
        self.deadline = deadline
        self.work = os.path.join(root, ".perfbench_work",
                                 f"{workload.name}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.raw = workload.scenario(root, seed)
        self.config = os.path.join(self.work, "scenario.json")
        with open(self.config, "w") as fh:
            json.dump(self.raw, fh, indent=1)
        self.env = child_env(root)
        self.reps = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    def _child(self, *extra):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--config", self.config, *extra]
        proc = subprocess.run(cmd, env=self.env, cwd=self.work, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"child printed no report: {proc.stdout[-500:]!r}")
        if not os.path.realpath(report["gmfg_file"]).startswith(self.src + os.sep):
            raise BenchError(f"gmfg imported from {report['gmfg_file']}, not {self.src}")
        return report

    def setup_only(self):
        return self._child()

    def repetition(self, trace=False):
        """Run the subcommand once; returns (report, problems)."""
        out = os.path.join(self.work, f"out_{self.reps}")
        self.reps += 1
        extra = ["--command", self.workload.command, "--out", out]
        report = self._child(*extra, *(["--trace"] if trace else []))
        try:
            if report["exit_code"] != 0:
                return report, [f"gmfg exited {report['exit_code']}"]
            return report, self.workload.check(out, self.raw)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return report, [f"unreadable artifacts: {exc!r}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)


def run_workload(root, name, seed, seconds, trace, log=sys.stderr):
    """One benchmark run; returns the result object printed as the last line."""
    started = time.monotonic()
    runner = Runner(root, WORKLOADS[name], seed, started + RUN_LIMIT_S)
    attempted = failed = 0
    setups, walls, rss, traced_walls, layers = [], [], [], [], []
    try:
        runner.setup_only()  # compiles bytecode; not timed
        budget_end = time.monotonic() + seconds
        durations = []
        while True:
            traced = trace and attempted % 2 == 0
            rep_started = time.monotonic()
            attempted += 1
            try:
                report, problems = runner.repetition(trace=traced)
            except (BenchError, subprocess.TimeoutExpired) as exc:
                report, problems = None, [str(exc)]
            durations.append(time.monotonic() - rep_started)
            if problems:
                failed += 1
                print(f"{name}: repetition {attempted} failed: {problems}", file=log)
            if report is None:
                break
            setups.append(report["setup_s"])
            if traced:
                if report["untraced"]:
                    print(f"{name}: no such function for spans {report['untraced']}",
                          file=log)
                traced_walls.append(report["wall_s"])
                layers.append(report["layers"])
            else:
                walls.append(report["wall_s"])
                rss.append(report["peak_rss_mb"])
            if (attempted >= MIN_REPS
                    and time.monotonic() + statistics.median(durations) > budget_end):
                break
        for _ in range(SETUP_SAMPLES):
            setups.append(runner.setup_only()["setup_s"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        failed += 1
        attempted = max(attempted, failed)
        print(f"{name}: {exc}", file=log)
    finally:
        runner.close()

    if trace:
        metrics = _layer_metrics(layers, traced_walls, walls)
        counts = _counts(layers)
        if any(c != counts[0] for c in counts):
            failed += 1
            print(f"{name}: layer counts differ between repetitions", file=log)
    else:
        metrics = {}
        for key, values in (("wall_s", walls), ("setup_s", setups),
                            ("peak_rss_mb", rss)):
            if values:
                metrics[key] = {"value": statistics.median(values),
                                "unit": END_TO_END_UNITS[key]}
        print(f"{name}: {len(walls)} repetitions, wall_s {walls}, setup_s {setups}",
              file=log)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _counts(layers):
    return [{k: v for k, v in layer.items() if not k.endswith("self_s")}
            for layer in layers]


def _layer_metrics(layers, traced_walls, walls):
    if not layers:
        return {}
    metrics = {}
    for key in layers[0]:
        if key.endswith("self_s"):
            metrics[key] = {"value": statistics.median(l[key] for l in layers),
                            "unit": "s"}
        else:
            metrics[key] = {"value": layers[0][key],
                            "unit": "bytes" if key.endswith("bytes") else "count"}
    if walls:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_info():
    import numpy
    import scipy
    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "cli_threads": f"default: min(4, nproc) = {min(4, nproc)}"}


def summary(root, runs, seed, seconds, names, log=sys.stderr):
    """Run every workload ``runs`` times on seeds seed, seed+1, ..."""
    table = {}
    for name in names:
        per_metric = {}
        attempted = failed = 0
        for i in range(runs):
            result = run_workload(root, name, seed + i, seconds, False, log)
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                per_metric.setdefault(key, []).append(m["value"])
        rows = {}
        for key, values in per_metric.items():
            q1, med, q3 = quartiles(values)
            rows[key] = {"unit": END_TO_END_UNITS[key], "median": med, "q1": q1,
                         "q3": q3, "runs": len(values), "values": values}
        rows["fail_rate"] = {"unit": "1", "value": failed / max(attempted, 1),
                             "failed": failed, "attempted": attempted}
        table[name] = rows
        for key, r in rows.items():
            if key == "fail_rate":
                print(f"{name:14s} {key:12s} {r['value']:.3f} ({failed}/{attempted} "
                      "repetitions)")
            else:
                print(f"{name:14s} {key:12s} median {r['median']:.4g} {r['unit']}  "
                      f"q1 {r['q1']:.4g}  q3 {r['q3']:.4g}  runs {r['runs']}")
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="written into seeds.master (default: the template's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload untraced and print quartiles")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--record", help="with --summary, write the table as JSON")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.summary:
            names = [args.workload] if args.workload else list(WORKLOADS)
            seed = 0 if args.seed is None else args.seed
            table = summary(root, args.runs, seed, args.seconds, names)
            if args.record:
                with open(args.record, "w") as fh:
                    json.dump({"machine": machine_info(), "first_seed": seed,
                               "seconds": args.seconds, "workloads": table},
                              fh, indent=1)
                    fh.write("\n")
            failed = any(rows["fail_rate"]["failed"] for rows in table.values())
            return 1 if failed else 0
        if args.workload is None:
            parser.error("--workload is required without --summary")
        result = run_workload(root, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
