"""The outer graphon mean field game fixed point.

One Picard pass maps a measure ensemble to per-vertex best responses, then
to the law those responses induce, solved on the x-grid by the forward
Fokker-Planck step, then back to the ensemble of its quantile atoms. That
step is not the adjoint of the value sweep's: both apply diffusion and
transport in the same order (ROADMAP item 7). The map is deterministic, so
the iteration trace exposes the contraction rate directly. The same grid
law, iterated with the policy held fixed, gives the self-consistent laws
of a fixed feedback table: System C's cluster laws and the sensitivity
probe, which estimates the two constants whose product governs the rate.
Particles remain where paths are the object: closed-loop propagation
under common random numbers.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import rng
from .control import (closed_loop_steps, frozen_fields, policy_lipschitz,
                      scaled_increments, solve_fpk, solve_hjb)
from .errors import ConfigError, ConvergenceError, InvariantError
from .graphon import VertexGrid
from .measures import MeasureEnsemble, PathBundle, node_masses, node_quantiles, node_w1_sup

# quantile atoms per (vertex, time) of a solved law: the ensemble that
# frozen_fields, ensemble.csv and System D read
LAW_ATOMS = 128


class GMFGProblem:
    """A full game instance: data, graphon, initial law, grids, seeds.

    ``initial_masses`` is the initial law split onto the nodes of
    ``x_grid`` (:func:`~gmfg.measures.node_masses`); an initial atom
    outside the grid raises DomainError. ``R`` and ``seed`` are the
    particles per vertex and the noise of :func:`propagate_closed_loop`;
    the laws themselves draw nothing.
    """

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
        self.initial_masses = node_masses(initial_law, self.x_grid)

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
    def distance_floor(self):
        """The rounding floor N_x eps (x_max - x_min) of a node-law W1
        distance on ``x_grid``: :func:`~gmfg.measures.node_w1_sup` is dx
        times a sum of N_x cumulative-mass differences, each off by at most
        about N_x eps, so two passes of a deterministic map that differ by
        no more than this have reached its fixed point."""
        span = float(self.x_grid[-1] - self.x_grid[0])
        return self.N_x * np.finfo(float).eps * span


@dataclass
class GMFGSolution:
    """Converged solution of the fixed point: the (M, K+1, N_x) feedback
    table, one row per vertex, and the ensemble of ``LAW_ATOMS`` quantile
    atoms of the law it induces."""

    policy: np.ndarray
    ensemble: MeasureEnsemble
    trace: list
    tol: float
    problem: GMFGProblem = None


def propagate_closed_loop(problem, policy, e_drift, fields=None):
    """Closed-loop Euler-Maruyama propagation of every vertex population.

    Per vertex, R particles start from i.i.d. draws of the initial law and
    follow the measure-coupled drift evaluated against ``e_drift`` with the
    vertex row of the (M, K+1, N_x) feedback table ``policy`` in the
    control slot. All (M, R) particles step together in the closed-loop
    kernel :func:`~gmfg.control.closed_loop_steps`, which also gives the
    ``escaped_mass`` and raises NumericalError on a diverged vertex. Noise
    and initial draws are keyed by (seed, vertex), so repeated calls couple
    exactly. The paths are time-major, (M, K+1, R), behind the (M, R, K+1)
    view: an Euler step then writes one contiguous block.
    """
    p, dt = problem.functions, problem.functions.T / problem.K
    if fields is None:
        fields = _drift_fields(problem, e_drift)
    paths = np.empty((problem.M, problem.K + 1, problem.R)).swapaxes(1, 2)
    for v in range(problem.M):
        paths[v, :, 0] = problem.initial_law.quantile(
            rng.stream(problem.seed, rng.INITIAL, v).random(problem.R))
        scaled_increments(paths[v], p.sigma, dt, rng.stream(problem.seed, rng.PROPAGATE, v))
    escaped = closed_loop_steps(paths, dt, fields, policy)
    return PathBundle(paths, problem.times, escaped_mass=escaped)


def _drift_fields(problem, ensemble):
    """Drift-only frozen fields of every solver vertex against ``ensemble``."""
    return frozen_fields(problem.functions, problem.graphon,
                         problem.vertex_grid.midpoints, ensemble, problem.x_grid,
                         drift_only=True)


@contextmanager
def _timed(seconds, phase):
    """Add the block's wall time to ``seconds[phase]`` unless ``seconds`` is
    None."""
    start = time.perf_counter()
    try:
        yield
    finally:
        if seconds is not None:
            seconds[phase] = seconds.get(phase, 0.0) + time.perf_counter() - start


def inner_mv_consistency(problem, policy, max_inner=60, start=None):
    """Self-consistent vertex laws on the x-grid under a fixed feedback table.

    Starts from the ensemble ``start``, or from the pure-diffusion law if
    None; each pass freezes the drift fields of the current ensemble and
    solves the law of ``policy`` under them (:func:`_law`), and its
    distance is the exact node-law W1 change, sup over (vertex, time). A
    ``start`` brings no node masses, so its first law solve records no
    distance: the trace then holds one entry fewer than the loop's law
    solves under the policy, which a ladder rung reports as
    ``system_c_law_passes``. A start near the fixed point, such as a
    solved ensemble of the same problem, saves the passes that the
    pure-diffusion start spends reaching it. With the policy fixed the map
    contracts, so the distances decay geometrically; the loop stops at the
    first one at or below the problem's ``distance_floor`` and raises
    ConvergenceError with the trace after ``max_inner`` passes without it.
    Returns (masses, ensemble, trace): the (M, K+1, N_x) node laws, their
    quantile ensemble and the per-pass distances.
    """
    dx = float(problem.x_grid[1] - problem.x_grid[0])
    masses, ens = _law(problem) if start is None else (None, start)
    trace = []
    for _ in range(max_inner):
        new, ens = _law(problem, _drift_fields(problem, ens).drift_coef * policy)
        if masses is not None:
            trace.append(node_w1_sup(new, masses, dx))
        masses = new
        if trace and trace[-1] <= problem.distance_floor:
            return masses, ens, trace
    raise ConvergenceError(
        f"measure consistency stalled above {problem.distance_floor:.3g} "
        f"after {max_inner} passes", trace=trace)


def _law(problem, drift=None):
    """The (M, K+1, N_x) node law of every vertex under the nodal ``drift``
    (None: pure diffusion) and its ensemble of quantile atoms."""
    masses = solve_fpk(problem.functions, problem.x_grid, problem.times,
                       np.broadcast_to(problem.initial_masses, (problem.M, problem.N_x)),
                       drift)
    atoms = node_quantiles(masses, problem.x_grid, LAW_ATOMS)
    return masses, MeasureEnsemble(atoms, problem.times)


def picard_solve(problem, tol, max_outer=30, min_outer=None, timing=False):
    """Fixed-point iteration of the full game map.

    The law of every vertex is a set of node masses on ``x_grid``: the
    initial atoms split linearly between nodes, then one forward
    Fokker-Planck step per time step (:func:`~gmfg.control.solve_fpk`).
    Starting from the pure-diffusion law, each pass freezes the fields of
    the current ensemble (``LAW_ATOMS`` quantile atoms of the law per
    vertex and time node), solves the vertex value equations against them,
    and solves the law of the new policy under the same fields. The pass's
    distance is the sup over (vertex, time) of the exact W1 change of the
    node laws. Each trace entry also records the CFL margin (the smallest
    1 - sup|drift| dt / dx over the vertices), the escaped mass (the mass
    on the two end nodes, averaged over vertices and time steps) and
    ``policy_lipschitz``, the largest x-difference quotient of any vertex
    policy (:func:`~gmfg.control.policy_lipschitz`). With ``timing``, each
    entry also holds ``phase_seconds``, the pass's wall time in freezing the
    fields, the value sweep, the law solve and the W1 distance (``fields``,
    ``hjb``, ``propagate``, ``w1``). A pass whose distance is at or below
    the problem's ``distance_floor``, the rounding level of the node-law
    W1, has reached the fixed point and stops the solve at once, whatever
    ``min_outer`` says, the first pass included. Otherwise convergence may
    be declared from pass ``min_outer`` on (default 2) once the distance is
    below ``tol``; an explicit ``min_outer`` above ``max_outer`` could never
    be met and is a ConfigError. Non-convergence raises with the trace
    attached, so callers can inspect an empirical ratio at or above one.
    """
    if min_outer is None:
        min_outer = 2
    elif min_outer > max_outer:
        raise ConfigError(f"min_outer {min_outer} exceeds max_outer {max_outer}")
    p, alphas = problem.functions, problem.vertex_grid.midpoints
    dx = float(problem.x_grid[1] - problem.x_grid[0])
    floor = problem.distance_floor
    masses, ens = _law(problem)
    prev_policy = None
    trace = []
    for i in range(max_outer):
        seconds = {} if timing else None
        with _timed(seconds, "fields"):
            fls = frozen_fields(p, problem.graphon, alphas, ens, problem.x_grid)
        with _timed(seconds, "hjb"):
            _, policy = solve_hjb(p, problem.graphon, alphas, ens, problem.x_grid,
                                  fields=fls)
        with _timed(seconds, "propagate"):
            new, new_ens = _law(problem, fls.drift_coef * policy)
        with _timed(seconds, "w1"):
            d = node_w1_sup(new, masses, dx)
        pol_delta = float(np.abs(policy - prev_policy).max()) if prev_policy is not None else math.nan
        entry = {
            "iteration": i,
            "distance": d,
            "ratio": d / trace[-1]["distance"] if trace and trace[-1]["distance"] > 0 else math.nan,
            "policy_delta": pol_delta,
            "cfl_margin": float(fls.cfl_margin().min()),
            "escaped_mass": float(new[:, :-1, [0, -1]].sum(axis=-1).mean()),
            "policy_lipschitz": policy_lipschitz(policy, problem.x_grid),
        }
        if timing:
            entry["phase_seconds"] = seconds
        trace.append(entry)
        prev_policy = policy
        masses, ens = new, new_ens
        if d <= floor or (d < tol and i + 1 >= min_outer):
            return GMFGSolution(policy, ens, trace, tol, problem)
    raise ConvergenceError(
        f"no contraction below {tol:.3g} within {max_outer} passes", trace=trace)


@dataclass
class SensitivityReport:
    """Local estimates of the response constants at one solution."""

    c1: float
    c2: float
    policy_change: float
    ensemble_shift: float

    @property
    def product(self):
        return self.c1 * self.c2


def sensitivity_probe(problem, solution, delta=0.05):
    """Finite-difference probe of the fixed-point contraction constants.

    Shifts every ensemble atom by ``delta`` (a location shift moves the
    path ensemble by exactly min(delta, 1) under the synchronous coupling),
    re-solves the best responses, and reports

    * c1: sup-norm policy change divided by the ensemble shift, and
    * c2: the node-law W1 distance between the self-consistent laws of
      the two policies (:func:`inner_mv_consistency`, each loop started
      from the solved ensemble), sup over (vertex, time), divided by the
      policy change. That law distance is the one the Picard contraction
      bounds, and it is at most the synchronous-coupling path distance of
      the two policies.

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
    laws = [inner_mv_consistency(problem, policy, start=solution.ensemble)[0]
            for policy in (solution.policy, shifted_policy)]
    c2 = node_w1_sup(*laws, float(problem.x_grid[1] - problem.x_grid[0])) / dphi
    return SensitivityReport(c1, c2, dphi, shift_dist)
