"""The outer graphon mean field game fixed point.

One Picard pass maps a measure ensemble to per-vertex best responses, then
to the closed-loop particle propagation those responses induce, then back to
the new ensemble of time marginals. Common random numbers across passes make
the map deterministic, so the iteration trace exposes the contraction rate
directly. A sensitivity probe estimates the two constants whose product
governs that rate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .control import (GridLookup, euler_maruyama_steps, frozen_fields,
                      policy_lipschitz, solve_hjb)
from .errors import ConfigError, ConvergenceError, InvariantError, NumericalError
from .graphon import VertexGrid
from .measures import (MeasureEnsemble, PathBundle, ensemble_distance,
                       ensemble_w1_sup, marginals)


class GMFGProblem:
    """A full game instance: data, graphon, initial law, grids, seeds."""

    def __init__(self, functions, graphon, initial_law, M, K, N_x=201,
                 R=5000, seed=0, domain=None, domain_padding=0.0):
        if R < 100:
            raise InvariantError("particle count R must be at least 100")
        self.functions = functions
        self.graphon = graphon
        self.initial_law = initial_law
        self.M = int(M)
        self.K = int(K)
        self.N_x = int(N_x)
        self.R = int(R)
        self.seed = int(seed)
        self.vertex_grid = VertexGrid(M)
        self.times = np.linspace(0.0, functions.T, self.K + 1)
        if domain is None:
            domain = self._default_domain(domain_padding)
        self.x_grid = np.linspace(float(domain[0]), float(domain[1]), self.N_x)

    def _default_domain(self, extra):
        # Initial support widened by the diffusion cone and a drift-range
        # estimate; bounded drift keeps the mass inside.
        p = self.functions
        lo = float(self.initial_law.atoms.min())
        hi = float(self.initial_law.atoms.max())
        pad = 6.0 * p.sigma * math.sqrt(p.T) + self._drift_range() * p.T + float(extra)
        return lo - pad, hi + pad

    def _drift_range(self):
        p = self.functions
        s = p.structured_parts
        umax = max(abs(p.u_min), abs(p.u_max))
        span = np.linspace(-2.0, 2.0, 17)
        xg, yg = np.meshgrid(span, span)
        coef = np.abs(np.broadcast_to(s["f0"](xg, yg), xg.shape)) \
            + np.abs(np.broadcast_to(s["f"](xg, yg), xg.shape))
        return float(coef.max() * umax)

    @property
    def noise_floor(self):
        return 3.0 / math.sqrt(self.R)


@dataclass
class GMFGSolution:
    """Converged solution of the fixed point: the (M, K+1, N_x) feedback
    table, one row per vertex, and the ensemble it induces."""

    policy: np.ndarray
    ensemble: MeasureEnsemble
    trace: list
    tol: float
    noise_floor: float
    problem: GMFGProblem = None


def _start_paths(problem):
    """The read-only (M, R, K+1) start buffer of a solve.

    Slot 0 holds each vertex's initial draws of the initial law and slot
    k+1 its scaled Brownian increment sigma sqrt(dt) Z_k. Both streams are
    keyed by (seed, vertex), so a solve draws them once and every
    propagation of it starts from a copy (:func:`_fresh_paths`), fresh or
    written into a buffer the solve recycles. The memory is time-major,
    (M, K+1, R), behind the (M, R, K+1) view: an Euler step then writes one
    contiguous block, and the buffer is in an ensemble's memory order.
    """
    scale = problem.functions.sigma * math.sqrt(problem.functions.T / problem.K)
    paths = np.empty((problem.M, problem.K + 1, problem.R)).swapaxes(1, 2)
    for v in range(problem.M):
        paths[v, :, 0] = problem.initial_law.quantile(
            rng.stream(problem.seed, rng.INITIAL, v).random(problem.R))
        # standard_normal(out=) needs a contiguous target, so draw and
        # scale; an unnamed draw is freed before the next one is made
        np.multiply(scale, rng.stream(problem.seed, rng.PROPAGATE, v)
                    .standard_normal((problem.R, problem.K)), out=paths[v, :, 1:])
    paths.flags.writeable = False
    return paths


def _fresh_paths(problem, start, out=None):
    # a writable copy of the solve's start buffer, in its time-major layout:
    # written into ``out``, the (M, K+1, R) atoms of an ensemble the solve
    # no longer reads, when given, else fresh; a call made outside a solve
    # (start None) draws its own
    if start is None:
        start = _start_paths(problem)
    if out is None:
        return start.copy(order="K")
    paths = np.swapaxes(out, 1, 2)
    np.copyto(paths, start)
    return paths


def zero_drift_bundle(problem, start=None):
    """Pure-diffusion propagation of the initial law (the starting iterate).

    ``start`` is the solve's start buffer (:func:`_start_paths`); without
    one, the draws are made here.
    """
    paths = _fresh_paths(problem, start)
    np.cumsum(paths[..., 1:], axis=2, out=paths[..., 1:])
    paths[..., 1:] += paths[..., :1]
    return PathBundle(paths, problem.times)


def propagate_closed_loop(problem, policy, e_drift, fields=None, start=None,
                          _out=None):
    """Closed-loop Euler-Maruyama propagation of every vertex population.

    Per vertex, R particles start from i.i.d. draws of the initial law and
    follow the measure-coupled drift evaluated against ``e_drift`` with the
    vertex row of the (M, K+1, N_x) feedback table ``policy`` in the
    control slot. All (M, R) particles step together:
    one grid lookup per step serves both the policy and the drift tables.
    Noise and initial draws are keyed by (seed, vertex, replica), so
    repeated calls couple exactly; a solve passes the ``start`` buffer it
    drew once (:func:`_start_paths`), and a call without one draws it.
    :func:`picard_solve` also passes ``_out``, the atoms of an ensemble it
    has retired, to propagate in that memory instead of a fresh copy. The
    bundle's ``escaped_mass`` is the share of particle-steps that started
    outside the space grid, where the tables are clamped to their end
    values.
    """
    p = problem.functions
    if fields is None:
        fields = frozen_fields(p, problem.graphon, problem.vertex_grid.midpoints,
                               e_drift, problem.x_grid, drift_only=True)
    rows = np.arange(problem.M)[:, None]
    dt = p.T / problem.K
    paths = _fresh_paths(problem, start, _out)
    escaped = 0

    def drift(k, x):
        nonlocal escaped
        look = GridLookup(problem.x_grid, x, rows)
        escaped += look.escaped
        return look(fields.drift_coef[:, k]) * look(policy[:, k])

    euler_maruyama_steps(paths, dt, drift)
    bad = ~np.isfinite(paths[:, :, -1]).all(axis=1)
    if bad.any():
        raise NumericalError(f"propagation diverged at vertex {int(np.argmax(bad))}")
    return PathBundle(paths, problem.times,
                      escaped_mass=escaped / paths[..., 1:].size)


def inner_mv_consistency(problem, policy, e_start, tol_inner=None,
                         max_inner=60, start=None):
    """Self-consistent propagation under a fixed feedback table.

    Iterates drift-ensemble updates nu <- marginals(propagate(policy, nu))
    until the sup W1 change drops below ``tol_inner``. With the policy fixed
    this map contracts on any horizon window, so geometric decay of the
    change is the expected trace shape. Every pass propagates from one
    start buffer: the caller's ``start``, or one drawn here. Returns
    (bundle, ensemble, trace); the ensemble is a sorted copy, so the bundle
    keeps the particle order that coupled path distances read
    (:func:`sensitivity_probe`).
    """
    if tol_inner is None:
        tol_inner = max(1e-4, 0.2 * problem.noise_floor)
    if start is None:
        start = _start_paths(problem)
    ens = e_start
    trace = []
    for j in range(max_inner):
        bundle = propagate_closed_loop(problem, policy, ens, start=start)
        new = marginals(bundle)
        d = ensemble_w1_sup(new, ens)
        trace.append(d)
        ens = new
        if d < tol_inner:
            return bundle, ens, trace
    raise ConvergenceError(
        f"measure consistency stalled above {tol_inner:.3g} after {max_inner} passes",
        trace=trace)


def picard_solve(problem, tol=None, max_outer=30, mode="single_loop",
                 min_outer=None, inner_tol=None):
    """Fixed-point iteration of the full game map.

    Starting from the zero-drift propagation marginals, each pass solves the
    vertex value equations against the current ensemble, propagates the
    closed loop (directly in ``single_loop`` mode, through the inner
    measure-consistency sub-iteration in ``double_loop`` mode), and measures
    the sup-over-(vertex, time) W1 change. Each trace entry also records
    the pass's CFL margin (the smallest 1 - sup|drift| dt / dx over the
    vertices), its escaped mass (the share of particle-steps outside the
    space grid), its number of propagations (``inner_passes``: 1 in
    ``single_loop`` mode, the inner sub-iteration's pass count in
    ``double_loop`` mode) and ``policy_lipschitz``, the largest x-difference
    quotient of any vertex policy (:func:`~gmfg.control.policy_lipschitz`).
    The initial states and the noise are drawn once per solve and shared
    by every propagation of it (common random numbers across passes).
    The zero-drift start is sorted into a copy (:func:`marginals`). A
    single-loop pass sorts its propagation buffer in place and adopts it
    as the new ensemble, and the next pass propagates in the atoms of the
    ensemble this one retired: a solve holds at most three path-sized
    arrays (the start buffer and two ensembles), and after the zero-drift
    start only its first pass allocates one.
    Particle noise cannot resolve ensembles below the sampling floor, so
    the tolerance is clamped to 5 / sqrt(R). Convergence may be
    declared from pass ``min_outer`` on (default 2); an explicit
    ``min_outer`` above ``max_outer`` could never be met and is a
    ConfigError. Non-convergence raises with the trace attached, so callers
    can inspect an empirical ratio at or above one.
    """
    if mode not in ("single_loop", "double_loop"):
        raise ConfigError(f"unknown mode {mode!r}")
    if min_outer is None:
        min_outer = 2
    elif min_outer > max_outer:
        raise ConfigError(f"min_outer {min_outer} exceeds max_outer {max_outer}")
    floor = problem.noise_floor
    p, alphas = problem.functions, problem.vertex_grid.midpoints
    tol_eff = max(tol if tol is not None else 0.0, 5.0 / math.sqrt(problem.R))
    start = _start_paths(problem)
    ens = marginals(zero_drift_bundle(problem, start))
    spare = None
    trace = []
    prev_policy = None
    for i in range(max_outer):
        fls = frozen_fields(p, problem.graphon, alphas, ens, problem.x_grid)
        _, policy = solve_hjb(p, problem.graphon, alphas, ens, problem.x_grid,
                              fields=fls)
        if mode == "single_loop":
            bundle = propagate_closed_loop(problem, policy, ens, fields=fls,
                                           start=start, _out=spare)
            new = MeasureEnsemble.adopt(np.swapaxes(bundle.paths, 1, 2), problem.times)
            # nothing reads ens once this pass ends: the fields are tables,
            # and only ``new`` can be returned
            spare = ens.atoms
            passes = 1
        else:
            bundle, new, inner = inner_mv_consistency(problem, policy, ens, inner_tol,
                                                      start=start)
            passes = len(inner)
        d = ensemble_w1_sup(new, ens)
        pol_delta = float(np.abs(policy - prev_policy).max()) if prev_policy is not None else math.nan
        entry = {
            "iteration": i,
            "distance": d,
            "ratio": d / trace[-1]["distance"] if trace and trace[-1]["distance"] > 0 else math.nan,
            "policy_delta": pol_delta,
            "cfl_margin": float(fls.cfl_margin().min()),
            "escaped_mass": bundle.escaped_mass,
            "inner_passes": passes,
            "policy_lipschitz": policy_lipschitz(policy, problem.x_grid),
        }
        trace.append(entry)
        prev_policy = policy
        ens = new
        if d < tol_eff and i + 1 >= min_outer:
            return GMFGSolution(policy, ens, trace, tol_eff, floor, problem)
    raise ConvergenceError(
        f"no contraction below {tol_eff:.3g} within {max_outer} passes", trace=trace)


@dataclass
class SensitivityReport:
    """Local estimates of the response constants at one solution."""

    c1: float
    c2: float
    policy_change: float
    ensemble_shift: float
    inner_traces: tuple = field(default=())

    @property
    def product(self):
        return self.c1 * self.c2


def sensitivity_probe(problem, solution, delta=0.05):
    """Finite-difference probe of the fixed-point contraction constants.

    Shifts every ensemble atom by ``delta`` (a location shift moves the
    path ensemble by exactly min(delta, 1) under the synchronous coupling),
    re-solves the best responses, and reports

    * c1: sup-norm policy change divided by the ensemble shift, and
    * c2: coupled-propagation ensemble distance divided by the policy
      change, with both policy sets propagated to measure consistency
      under common noise.

    A zero denominator leaves the corresponding estimate undefined (NaN).
    """
    shifted = solution.ensemble.shift(delta)
    _, shifted_policy = solve_hjb(problem.functions, problem.graphon,
                                  problem.vertex_grid.midpoints, shifted,
                                  problem.x_grid)
    dphi = float(np.abs(shifted_policy - solution.policy).max())
    shift_dist = min(abs(float(delta)), 1.0)
    c1 = dphi / shift_dist if shift_dist > 0 else math.nan

    if dphi <= 0.0:
        return SensitivityReport(c1, math.nan, dphi, shift_dist)
    start = _start_paths(problem)
    b1, _, t1 = inner_mv_consistency(problem, solution.policy, solution.ensemble,
                                     start=start)
    b2, _, t2 = inner_mv_consistency(problem, shifted_policy, solution.ensemble,
                                     start=start)
    c2 = ensemble_distance(b1, b2) / dphi
    return SensitivityReport(c1, c2, dphi, shift_dist, (t1, t2))
