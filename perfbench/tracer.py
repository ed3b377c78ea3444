"""Span tracer that wraps the public functions of each ``gmfg`` layer.

The tracer lives in the benchmark, not in the package: it replaces module
attributes and class methods with timing wrappers for the duration of one
traced run. A span's self time is its duration minus the length of the
union of its child spans' intervals. The union matters because
``solve-gmfg`` runs per-vertex solves in a thread pool: children on
different threads overlap in time, and subtracting each one separately
would count the overlap twice.

Each thread keeps its own span stack. A span opened on a thread whose
stack is empty takes as parent the innermost open span of the thread that
installed the tracer, which is the thread that submitted the pool work.
"""

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Span:
    __slots__ = ("name", "start", "parent", "children")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.parent = parent
        self.children = []


class Tracer:
    """Aggregates per-name call counts, self time and extra counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_thread = threading.get_ident()
        self._stacks = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._stacks.get(self._root_thread)
            parent = root[-1] if root and root is not stack else None
        span = _Span(name, self.clock(), parent)
        stack.append(span)
        return span

    def end(self, span):
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        with self._lock:
            children = list(span.children)
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            own = (end - span.start) - union_length(children)
            self.calls[span.name] += 1
            self.self_s[span.name] += own

    def count(self, name, amount):
        with self._lock:
            self.counters[name] += int(amount)

    def wrap(self, name, fn, counters=None):
        """Timing wrapper around ``fn``; ``counters(args, kwargs, result)``
        returns a dict of counter increments for the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if counters is not None:
                for key, amount in counters(args, kwargs, result).items():
                    tracer.count(f"{name}.{key}", amount)
            return result

        return traced


# -- counters computed from call arguments and results -----------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _frozen_cells(args, kwargs, result):
    ensemble = _arg(args, kwargs, 3, "ensemble")
    x_grid = _arg(args, kwargs, 4, "x_grid")
    return {"cells": ensemble.n_times * len(x_grid)}


def _particle_steps(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    return {"particle_steps": problem.M * problem.R * problem.K}


def _picard_passes(args, kwargs, result):
    return {"passes": len(result.trace)}


def _inner_passes(args, kwargs, result):
    return {"passes": len(result[2])}


def _agent_steps(args, kwargs, result):
    pop = _arg(args, kwargs, 0, "pop")
    return {"agent_steps": pop.N * (result.paths.shape[1] - 1)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (span name, module, attribute path, counter function)
TARGETS = [
    ("graphon.evaluate", "gmfg.graphon", "Graphon.evaluate", None),
    ("measures.w1_sup", "gmfg.measures", "ensemble_w1_sup", None),
    ("measures.marginals", "gmfg.measures", "marginals", None),
    ("measures.compress", "gmfg.measures", "MeasureEnsemble.compress", None),
    ("control.frozen_fields", "gmfg.control", "frozen_fields", _frozen_cells),
    ("control.solve_hjb", "gmfg.control", "solve_hjb", None),
    ("solver.picard_solve", "gmfg.solver", "picard_solve", _picard_passes),
    ("solver.inner_mv", "gmfg.solver", "inner_mv_consistency", _inner_passes),
    ("solver.propagate", "gmfg.solver", "propagate_closed_loop", _particle_steps),
    ("population.system_a", "gmfg.population", "run_system_a", _agent_steps),
    ("population.system_b", "gmfg.population", "run_system_b", _agent_steps),
    ("population.system_c", "gmfg.population", "run_system_c", _agent_steps),
    ("population.system_d", "gmfg.population", "run_system_d", _agent_steps),
    ("population.family", "gmfg.population", "default_deviation_family", None),
    ("population.ladder", "gmfg.population", "run_ladder", None),
    ("lq.riccati", "gmfg.lq", "solve_riccati", None),
    ("lq.fundamental", "gmfg.lq", "fundamental_matrices", None),
    ("lq.norm_bound", "gmfg.lq", "LambdaOperator.norm_bound", None),
    ("lq.apply", "gmfg.lq", "LambdaOperator.apply", None),
    ("lq.solve", "gmfg.lq", "solve_lq_fixed_point", None),
    ("scenario.parse", "gmfg.scenario", "parse_scenario", None),
    ("cli.write_csv", "gmfg.cli", "write_csv", _written_bytes),
    ("cli.write_json", "gmfg.cli", "write_json", _written_bytes),
    ("cli.command", "gmfg.cli", "dispatch", None),
]


def install(tracer):
    """Wrap every target that exists; returns the names of those missing.

    A function imported by name into another ``gmfg`` module is replaced
    there too, so calls through ``from .control import frozen_fields`` are
    traced. A target missing from the package is skipped, and its metrics
    read zero.
    """
    missing = []
    for name, module_name, attr_path, counters in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(name)
            continue
        replacement = tracer.wrap(name, original, counters)
        if owner_name:
            setattr(owner, attr, replacement)
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "gmfg" or mod_name.startswith("gmfg."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, replacement)
    return missing


def layer_metrics(tracer):
    """The per-layer metrics reported by the benchmark, by name."""
    calls, own, count = tracer.calls, tracer.self_s, tracer.counters
    return {
        "graphon.evaluate.calls": calls["graphon.evaluate"],
        "graphon.evaluate.self_s": own["graphon.evaluate"],
        "measures.w1_sup.calls": calls["measures.w1_sup"],
        "measures.w1_sup.self_s": own["measures.w1_sup"],
        "measures.marginals.self_s": own["measures.marginals"],
        "measures.compress.self_s": own["measures.compress"],
        "control.frozen_fields.calls": calls["control.frozen_fields"],
        "control.frozen_fields.self_s": own["control.frozen_fields"],
        "control.frozen_fields.cells": count["control.frozen_fields.cells"],
        "control.solve_hjb.calls": calls["control.solve_hjb"],
        "control.solve_hjb.self_s": own["control.solve_hjb"],
        "solver.picard_passes": count["solver.picard_solve.passes"],
        "solver.inner_passes": count["solver.inner_mv.passes"],
        "solver.inner_mv.self_s": own["solver.inner_mv"],
        "solver.propagate.calls": calls["solver.propagate"],
        "solver.propagate.self_s": own["solver.propagate"],
        "solver.propagate.particle_steps": count["solver.propagate.particle_steps"],
        "solver.picard_solve.self_s": own["solver.picard_solve"],
        "population.system_a.self_s": own["population.system_a"],
        "population.system_b.self_s": own["population.system_b"],
        "population.system_c.self_s": own["population.system_c"],
        "population.system_d.self_s": own["population.system_d"],
        "population.agent_steps": sum(
            count[f"population.system_{s}.agent_steps"] for s in "abcd"),
        "population.family.self_s": own["population.family"],
        "population.ladder.self_s": own["population.ladder"],
        "lq.riccati.self_s": own["lq.riccati"],
        "lq.fundamental.self_s": own["lq.fundamental"],
        "lq.norm_bound.self_s": own["lq.norm_bound"],
        "lq.apply.calls": calls["lq.apply"],
        "lq.apply.self_s": own["lq.apply"],
        "lq.solve.self_s": own["lq.solve"],
        "scenario.parse.self_s": own["scenario.parse"],
        "cli.write_csv.calls": calls["cli.write_csv"],
        "cli.write_csv.self_s": own["cli.write_csv"],
        "cli.write_csv.bytes": count["cli.write_csv.bytes"],
        "cli.write_json.self_s": own["cli.write_json"],
        "cli.write_json.bytes": count["cli.write_json.bytes"],
        "cli.command.self_s": own["cli.command"],
    }
