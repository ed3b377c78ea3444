"""One benchmark repetition, run in a fresh Python process.

    python3 perfbench/child.py --config FILE [--command CMD --out DIR] [--trace]

Times the import of ``gmfg`` plus parsing the scenario (``setup_s``), then
the call into ``gmfg.cli.main`` until every artifact is written
(``wall_s``). With ``--trace`` the layer wrappers are installed between
the two. Prints one JSON object on stdout; the package is found through
``PYTHONPATH``, which the parent sets to the checkout's ``src``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--command")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import gmfg.cli
    from gmfg.scenario import parse_scenario
    parse_scenario(args.config)
    report = {"setup_s": time.perf_counter() - _STARTED,
              "gmfg_file": gmfg.cli.__file__}
    if args.command:
        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            report["untraced"] = tracer_mod.install(tracer)
        started = time.perf_counter()
        code = gmfg.cli.main([args.command, "--config", args.config,
                              "--out", args.out])
        report["wall_s"] = time.perf_counter() - started
        report["exit_code"] = code
        if tracer is not None:
            report["layers"] = tracer_mod.layer_metrics(tracer)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
