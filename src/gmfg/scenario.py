"""Scenario files: JSON in, validated problem objects out.

A scenario bundles the problem data (nonlinear structured coefficients or
LQ matrices), the graphon, grid sizes, seeds, tolerances, and an optional
population ladder. Validation walks the whole document and reports every
violation at once with its field path.
"""

import hashlib
import json

import numpy as np

from .coefficients import Constant, Poly2
from .control import ProblemFunctions
from .errors import ConfigError
from .graphon import Graphon
from .lq import LQParams
from .measures import Measure1D, dirac, normal_quantile_measure
from .solver import GMFGProblem

_TOP_KEYS = ("kind", "problem", "graphon", "grids", "seeds", "tolerances",
             "ladder", "diagnostics")
_PROBLEM_KEYS = {
    "nonlinear": ("form", "f0", "f", "l1", "l2", "l3", "l4", "control_set",
                  "sigma", "T", "initial"),
    "lq": ("A", "B", "D0", "D", "Sigma", "Q", "R", "Q_T", "gamma0", "gamma",
           "eta", "x0", "T"),
}
_EXPR_KEYS = ("const", "x", "y", "xx", "xy", "yy")
_INITIAL_KEYS = {"dirac": ("kind", "x"), "normal": ("kind", "mean", "std", "atoms"),
                 "atoms": ("kind", "atoms", "weights")}
# graphon kind -> (its one data field, constructor of that field's value)
_GRAPHON_KINDS = {"constant": ("c", Graphon.constant),
                  "uniform_attachment": (None, lambda _: Graphon.uniform_attachment()),
                  "product": ("values", Graphon.product),
                  "table": ("grid", Graphon.from_table),
                  "step": ("matrix", Graphon.step)}
_GRID_KEYS = ("M", "K", "N_x", "R", "output_atoms", "domain_padding")
_TOLERANCE_KEYS = ("picard_tol", "max_outer", "min_outer", "lq_tol")
_LADDER_KEYS = ("rungs", "replications", "deviator")
_DIAGNOSTICS_KEYS = ("m_values", "refinement")


def _finite(value):
    try:
        v = float(value)
    except (TypeError, ValueError):
        return None
    return v if np.isfinite(v) else None


class _Checker:
    def __init__(self):
        self.problems = []

    def fail(self, path, msg):
        self.problems.append(f"{path}: {msg}")

    def number(self, obj, path, *, positive=False, default=None):
        if obj is None:
            if default is not None:
                return default
            self.fail(path, "missing number")
            return 0.0
        v = _finite(obj)
        if v is None:
            self.fail(path, "must be a finite number")
            return 0.0
        if positive and not v > 0:
            self.fail(path, "must be positive")
        return v

    def integer(self, obj, path, minimum=1, default=None):
        if obj is None and default is not None:
            return default
        if not isinstance(obj, int) or isinstance(obj, bool):
            self.fail(path, "must be an integer")
            return minimum
        if obj < minimum:
            self.fail(path, f"must be at least {minimum}")
            return minimum
        return obj

    def known_keys(self, obj, path, known):
        """An object of the document may hold only the ``known`` fields."""
        for key in sorted(set(obj) - set(known)):
            self.fail(f"{path}.{key}" if path else key, "unknown field (known: "
                      + ", ".join(known) + ")")

    def block(self, doc, name, known):
        """The optional object ``doc[name]`` ({} when absent or null), which
        may hold only the ``known`` fields."""
        obj = doc.get(name)
        if obj is None:
            return {}
        if not isinstance(obj, dict):
            self.fail(name, "must be an object")
            return {}
        self.known_keys(obj, name, known)
        return obj

    def raise_if_failed(self):
        if self.problems:
            raise ConfigError("scenario validation failed:\n  "
                              + "\n  ".join(self.problems), self.problems)


def _poly2(spec, path, check):
    check.known_keys(spec, path, ("kind", *_EXPR_KEYS, "clip"))
    coeffs = {k: check.number(spec.get(k), f"{path}.{k}", default=0.0)
              for k in _EXPR_KEYS}
    clip = spec.get("clip")
    if clip is not None:
        if (not isinstance(clip, (list, tuple)) or len(clip) != 2
                or _finite(clip[0]) is None or _finite(clip[1]) is None
                or not float(clip[0]) < float(clip[1])):
            check.fail(f"{path}.clip", "must be [lo, hi] with lo < hi")
            clip = None
    return Poly2(clip=clip, **coeffs)


def parse_expression(spec, path, check):
    """Coefficient surface of (x, y) from a config expression block."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Constant(check.number(spec, path))
    if spec is None:
        check.fail(path, "missing coefficient")
        return Constant(0.0)
    if not isinstance(spec, dict):
        check.fail(path, "must be a number or an expression object")
        return Constant(0.0)
    kind = spec.get("kind", "poly2")
    if kind == "constant":
        check.known_keys(spec, path, ("kind", "c"))
        return Constant(check.number(spec.get("c"), f"{path}.c"))
    if kind == "poly2":
        return _poly2(spec, path, check)
    check.fail(path, f"unknown expression kind {kind!r}")
    return Constant(0.0)


def parse_initial(spec, path, check):
    if not isinstance(spec, dict) or "kind" not in spec:
        check.fail(path, "must be an object with a 'kind'")
        return dirac(0.0)
    kind = spec["kind"]
    if kind in _INITIAL_KEYS:
        check.known_keys(spec, path, _INITIAL_KEYS[kind])
    if kind == "dirac":
        return dirac(check.number(spec.get("x"), f"{path}.x", default=0.0))
    if kind == "normal":
        mean = check.number(spec.get("mean"), f"{path}.mean", default=0.0)
        std = check.number(spec.get("std"), f"{path}.std", default=1.0)
        atoms = check.integer(spec.get("atoms"), f"{path}.atoms", minimum=1,
                              default=129)
        if std < 0:
            check.fail(f"{path}.std", "must be nonnegative")
            std = 0.0
        return normal_quantile_measure(mean, std, atoms)
    if kind == "atoms":
        atoms = spec.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            check.fail(f"{path}.atoms", "must be a nonempty list")
            return dirac(0.0)
        weights = spec.get("weights")
        try:
            return Measure1D(atoms, weights)
        except Exception as exc:  # surfaced as one aggregated problem
            check.fail(path, str(exc))
            return dirac(0.0)
    check.fail(path, f"unknown initial kind {kind!r}")
    return dirac(0.0)


def parse_graphon(spec, path, check):
    if not isinstance(spec, dict) or spec.get("kind") not in _GRAPHON_KINDS:
        check.fail(path, "must be an object with a 'kind' in "
                   + ", ".join(_GRAPHON_KINDS))
        return Graphon.constant(0.0)
    name, build = _GRAPHON_KINDS[spec["kind"]]
    check.known_keys(spec, path, ("kind",) if name is None else ("kind", name))
    if name is not None and name not in spec:
        check.fail(f"{path}.{name}", "missing field")
        return Graphon.constant(0.0)
    try:
        return build(spec.get(name))
    except (TypeError, ValueError) as exc:
        check.fail(path, str(exc))
        return Graphon.constant(0.0)


class Scenario:
    """Validated scenario document plus builders for solver objects."""

    def __init__(self, raw):
        check = _Checker()
        self.raw = raw
        check.known_keys(raw, "", _TOP_KEYS)
        self.kind = raw.get("kind")
        if self.kind not in ("nonlinear", "lq"):
            check.fail("kind", "must be 'nonlinear' or 'lq'")
        self.graphon = parse_graphon(raw.get("graphon"), "graphon", check)

        grids = check.block(raw, "grids", _GRID_KEYS)
        self.M = check.integer(grids.get("M"), "grids.M", default=8)
        self.K = check.integer(grids.get("K"), "grids.K", default=64)
        self.N_x = check.integer(grids.get("N_x"), "grids.N_x", minimum=3, default=201)
        self.R = check.integer(grids.get("R"), "grids.R", minimum=100, default=5000)
        self.output_atoms = check.integer(grids.get("output_atoms"),
                                          "grids.output_atoms", minimum=1, default=128)
        self.domain_padding = check.number(grids.get("domain_padding"),
                                           "grids.domain_padding", default=0.0)

        seeds = check.block(raw, "seeds", ("master",))
        self.seed = check.integer(seeds.get("master"), "seeds.master", minimum=0,
                                  default=0)

        tols = check.block(raw, "tolerances", _TOLERANCE_KEYS)
        self.picard_tol = check.number(tols.get("picard_tol"), "tolerances.picard_tol",
                                       positive=True, default=0.05)
        self.max_outer = check.integer(tols.get("max_outer"), "tolerances.max_outer",
                                       default=30)
        # absent: the solver's default floor of two passes
        self.min_outer = tols.get("min_outer")
        if self.min_outer is not None:
            self.min_outer = check.integer(self.min_outer, "tolerances.min_outer")
            if self.min_outer > self.max_outer:
                check.fail("tolerances.min_outer",
                           f"must not exceed tolerances.max_outer ({self.max_outer})")
        self.lq_tol = check.number(tols.get("lq_tol"), "tolerances.lq_tol",
                                   positive=True, default=1e-9)

        ladder = check.block(raw, "ladder", _LADDER_KEYS)
        rungs = ladder.get("rungs", [[2, 25], [4, 50], [8, 100]])
        self.rungs = []
        if not isinstance(rungs, list) or not rungs:
            check.fail("ladder.rungs", "must be a nonempty list of [M_k, size]")
        else:
            for i, rung in enumerate(rungs):
                if (not isinstance(rung, (list, tuple)) or len(rung) != 2):
                    check.fail(f"ladder.rungs[{i}]", "must be [M_k, cluster_size]")
                    continue
                mk = check.integer(rung[0], f"ladder.rungs[{i}][0]")
                sz = check.integer(rung[1], f"ladder.rungs[{i}][1]")
                self.rungs.append((mk, sz))
        self.replications = check.integer(ladder.get("replications"),
                                          "ladder.replications", default=20)
        self.deviator = check.integer(ladder.get("deviator"), "ladder.deviator",
                                      minimum=0, default=0)

        diag = check.block(raw, "diagnostics", _DIAGNOSTICS_KEYS)
        m_values = diag.get("m_values", [4, 8, 16, 32])
        if not isinstance(m_values, list) or not m_values:
            check.fail("diagnostics.m_values", "must be a nonempty list of integers")
            m_values = []
        self.m_values = [check.integer(m, f"diagnostics.m_values[{i}]")
                         for i, m in enumerate(m_values)]
        self.refinement = check.integer(diag.get("refinement"),
                                        "diagnostics.refinement", default=8)

        problem = raw.get("problem")
        if not isinstance(problem, dict):
            check.fail("problem", "must be an object")
            problem = {}
        if self.kind in _PROBLEM_KEYS:
            check.known_keys(problem, "problem", _PROBLEM_KEYS[self.kind])
        if self.kind == "nonlinear":
            self._parse_nonlinear(problem, check)
        elif self.kind == "lq":
            self._parse_lq(problem, check)
        check.raise_if_failed()

    @property
    def solver_settings(self):
        """The :func:`~gmfg.solver.picard_solve` keywords of the tolerances."""
        return dict(tol=self.picard_tol, max_outer=self.max_outer,
                    min_outer=self.min_outer)

    # -- nonlinear ----------------------------------------------------------

    def _parse_nonlinear(self, spec, check):
        form = spec.get("form", "structured")
        if form != "structured":
            check.fail("problem.form", "only the 'structured' form is configurable")
        self.sigma = check.number(spec.get("sigma"), "problem.sigma", positive=True,
                                  default=0.3)
        self.T = check.number(spec.get("T"), "problem.T", positive=True, default=0.5)
        cs = spec.get("control_set", [-1.0, 1.0])
        if (not isinstance(cs, (list, tuple)) or len(cs) != 2
                or _finite(cs[0]) is None or _finite(cs[1]) is None
                or not float(cs[0]) < float(cs[1])):
            check.fail("problem.control_set", "must be [a, b] with a < b")
            cs = (-1.0, 1.0)
        self.control_set = (float(cs[0]), float(cs[1]))
        self._exprs = {name: parse_expression(spec.get(name), f"problem.{name}",
                                              check)
                       for name in ("f0", "f", "l1", "l2", "l3", "l4")}
        self.initial = parse_initial(spec.get("initial", {"kind": "dirac", "x": 0.0}),
                                     "problem.initial", check)

    def build_functions(self):
        e = self._exprs
        return ProblemFunctions.structured(e["f0"], e["f"], e["l1"], e["l2"],
                                           e["l3"], e["l4"], self.control_set,
                                           self.sigma, self.T)

    def build_problem(self, M=None):
        if self.kind != "nonlinear":
            raise ConfigError("scenario is not a nonlinear problem")
        return GMFGProblem(self.build_functions(), self.graphon, self.initial,
                           M=M if M is not None else self.M, K=self.K,
                           N_x=self.N_x, R=self.R, seed=self.seed,
                           domain_padding=self.domain_padding)

    # -- lq -----------------------------------------------------------------

    def _parse_lq(self, spec, check):
        def matrix(name, default=None):
            m = spec.get(name, default)
            if m is None:
                check.fail(f"problem.{name}", "missing matrix")
                return [[0.0]]
            if isinstance(m, (int, float)) and not isinstance(m, bool):
                return [[float(m)]]
            if not isinstance(m, list):
                check.fail(f"problem.{name}", "must be a matrix or scalar")
                return [[0.0]]
            return m

        self._lq_raw = {name: matrix(name) for name in
                        ("A", "B", "D0", "D", "Sigma", "Q", "R", "Q_T")}
        self.gamma0 = check.number(spec.get("gamma0"), "problem.gamma0", default=0.0)
        self.gamma = check.number(spec.get("gamma"), "problem.gamma", default=0.0)
        eta = spec.get("eta", [0.0])
        x0 = spec.get("x0", [0.0])
        self._eta = [eta] if isinstance(eta, (int, float)) else eta
        self._x0 = [x0] if isinstance(x0, (int, float)) else x0
        # json reads NaN and Infinity; shapes are LQParams' to check
        for name, value in (*self._lq_raw.items(), ("eta", self._eta), ("x0", self._x0)):
            try:
                finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
            except (TypeError, ValueError):
                continue
            if not finite:
                check.fail(f"problem.{name}", "entries must be finite numbers")
        self.T = check.number(spec.get("T"), "problem.T", positive=True, default=1.0)

    def build_lq(self):
        if self.kind != "lq":
            raise ConfigError("scenario is not an LQ problem")
        r = self._lq_raw
        try:
            return LQParams(r["A"], r["B"], r["D0"], r["D"], r["Sigma"], r["Q"],
                            r["R"], r["Q_T"], self.gamma0, self.gamma, self._eta,
                            self._x0, self.T, self.graphon, self.M, self.K)
        except Exception as exc:
            raise ConfigError(f"problem: {exc}", [f"problem: {exc}"]) from exc

    # -- identity -----------------------------------------------------------

    def canonical_json(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    @property
    def hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def parse_scenario(path, seed_override=None):
    """Load and validate a scenario file; all violations reported together."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("scenario root must be a JSON object")
    if seed_override is not None:
        if not isinstance(raw.get("seeds"), dict):
            raw["seeds"] = {}
        raw["seeds"]["master"] = int(seed_override)
    return Scenario(raw)
