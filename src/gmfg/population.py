"""Finite populations on weighted graphs and the approximate-Nash check.

A finite population puts one cluster of agents on every node of a step
graphon, every cluster of the same size n, as each rung (M_k, n) of the
population ladder does. Four coupled simulations share one Brownian cache
per seed:

* System A: every agent plays the solved mean-field feedback, coupled
  through empirical intra- and inter-cluster state averages.
* System B: same, except one deviator plays an arbitrary strategy.
* System C: agents decoupled through self-consistent cluster laws, solved
  once per graph on the solver's x-grid (:func:`system_c_fields`).
* System D: agents propagated against the frozen infinite-population
  ensemble.

Systems A and B run as one stack (:func:`simulate_coupled`): rows
s = (replication, member) step together as one (S, N) state, each row with
its own initial states and Brownian increments, and a row's member is what
the deviator plays there (None: the mean-field feedback of System A). The
ladder makes two stacked runs per rung, System A of every replication and
then every replication x deviation-family member, and each row is bit-equal
to its run alone.

The coupled averages in Systems A and B and both sides of the perturbation
terms are exact cluster brackets of the solver's engine,
:func:`~gmfg.control.brackets`: each Euler step reshapes the (S, N)
states into the (S M_k, n) samples of all (row, cluster) pairs, one
:class:`~gmfg.coefficients.SortedClusters`, and each agent reads its own
cluster and its row's clusters, weighted by its graph row, through views
of it. For N agents per row in M_k clusters of n, a step sorts the
clusters, O(S N log n), compares each agent's clip cuts with the least and
greatest sample of every cluster it reads, O(S N M_k), and searches only
the (agent, cluster) pairs with a cut inside that range, O(log n) each:
not one coefficient evaluation per pair of agents. The limit side of the
perturbation terms is the same engine over the vertex measures of the
solved ensemble.

Path gaps between the systems estimate the deviation metrics eps1..eps3,
and unilateral cost comparisons over a declared deviation family give a
lower bound on the Nash gap of the mean-field strategy profile.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .coefficients import SortedClusters
from .control import (GridLookup, Policy, brackets, closed_loop_steps,
                      euler_maruyama_steps, frozen_fields, scaled_increments,
                      solve_hjb)
from .errors import ConfigError, GridError, InvariantError
from .graphon import VertexGrid, sample_step_graphon
from .measures import MeasureEnsemble
from .solver import GMFGProblem, _drift_fields, _timed, inner_mv_consistency


class FinitePopulation:
    """M_k clusters of ``size`` agents over the nodes of a step graphon,
    agents indexed in cluster order."""

    def __init__(self, graph, size, initial_law, seed):
        if graph.kind != "step":
            raise InvariantError("population graph must be a step graphon")
        if size < 1:
            raise InvariantError("every cluster needs at least one agent")
        self.graph = graph
        self.size = int(size)
        self.M_k = int(graph.cells)
        self.N = self.M_k * self.size
        self.seed = int(seed)
        self.vertex_grid = VertexGrid(self.M_k)
        self.cluster_of = np.repeat(np.arange(self.M_k), self.size)
        self.initial_law = initial_law
        draws = rng.stream(seed, rng.POP_INITIAL).random(self.N)
        self.initial_states = initial_law.quantile(draws)
        self._stack_weights = {}

    def midpoint(self, agent):
        """Vertex coordinate I*(i) of the agent's cluster."""
        return float(self.vertex_grid.midpoints[self.cluster_of[agent]])

    def stack_weights(self, S, agents=None):
        """(S n, 1, M_k) graphon bracket weights of the ``agents`` (n, every
        agent if None) of S stacked rows: each agent's graph row divided by
        M_k, built once per (S, agents) for every Euler step of a stack."""
        key = S, agents if agents is None else tuple(agents)
        if key not in self._stack_weights:
            own = self.cluster_of if agents is None else self.cluster_of[agents]
            self._stack_weights[key] = np.tile(self.graph.matrix[own] / self.M_k,
                                               (S, 1))[:, None]
        return self._stack_weights[key]

    def start_paths(self, sigma, dt, K, out=None):
        """The (N, K+1) start buffer of a run, fresh or written into ``out``:
        the initial states, then the scaled increments sigma sqrt(dt) Z_k."""
        if out is None:
            out = np.empty((self.N, K + 1))
        out[:, 0] = self.initial_states
        return scaled_increments(out, sigma, dt, rng.stream(self.seed, rng.POP_BROWNIAN))


def build_population(g, M_k, size, initial_law, seed):
    """Deterministic population of M_k clusters of ``size`` agents.

    Analytic graphons are midpoint-sampled to a step graphon on M_k nodes;
    a step graphon is used as the graph directly when the node counts match.
    """
    if g.kind == "step":
        if g.cells != M_k:
            raise GridError(f"step graphon has {g.cells} nodes, expected {M_k}")
        graph = g
    else:
        graph = sample_step_graphon(g, M_k)
    return FinitePopulation(graph, size, initial_law, seed)


@dataclass
class TrajectorySet:
    """Per-agent paths of one system run plus optional deviator and cost
    attachments."""

    paths: np.ndarray                 # (N, K+1)
    times: np.ndarray
    label: str
    deviator: int = None
    deviator_controls: np.ndarray = None   # (K,)
    costs: dict = field(default_factory=dict)


def _policy_vertices(pop, solution):
    """(M_k,) index of the solver vertex nearest each cluster's midpoint."""
    return solution.problem.vertex_grid.nearest(pop.vertex_grid.midpoints)


def _cluster_policy(pop, solution):
    """(M_k, K+1, N_x) policy table: each cluster's row is the solved row of
    the solver vertex nearest its midpoint."""
    return solution.policy[_policy_vertices(pop, solution)]


def _deviation_control(psi, t, x_i, x_all):
    if isinstance(psi, Policy):
        return float(psi(t, x_i))
    return float(psi(t, x_i, x_all))


def _stack_views(clusters, S, M_k, own):
    """The own-cluster and the row views of a stack of S rows, row s the
    clusters s M_k .. s M_k + M_k - 1, for points in the clusters ``own``
    (n,) of their row: (S n, 1) and (S n, M_k) cluster columns."""
    first = np.arange(S)[:, None, None] * M_k
    return (clusters.view((first + own[:, None]).reshape(-1, 1)),
            clusters.view((first + np.tile(np.arange(M_k), (own.size, 1))).reshape(-1, M_k)))


def _stack_brackets(parts, names, clusters, x, own, weights):
    """One (S, n) :func:`~gmfg.control.brackets` array per name at the
    states ``x`` of a stack, for points in the clusters ``own`` (n,) of
    their row, with their :meth:`FinitePopulation.stack_weights`."""
    views = _stack_views(clusters, x.shape[0], weights.shape[-1], own)
    plans = {name: parts[name].plan(x.ravel()) for name in names}
    return [b.reshape(x.shape) for b in brackets(plans, names, *views, weights)]


def _empirical_drift(p, pop, clusters, x, u):
    """Empirical intra + graphon-weighted inter drift of the (S, N) stack."""
    f0, f = _stack_brackets(p.structured_parts, ("f0", "f"), clusters, x,
                            pop.cluster_of, pop.stack_weights(x.shape[0]))
    return (f0 + f) * u


def _running_costs(p, pop, clusters, x, u, agents):
    """(S, len(agents)) running costs of the marked agents of every row
    against the realized state of their row."""
    u2 = u[:, agents] ** 2
    l1, l2, l3, l4 = _stack_brackets(p.structured_parts, ("l1", "l2", "l3", "l4"),
                                     clusters, x[:, agents], pop.cluster_of[agents],
                                     pop.stack_weights(x.shape[0], agents))
    return l1 + l2 * u2 + l3 + l4 * u2


# (row, agent, cluster) cells of one stacked Euler step: bounds the
# per-step temporaries; a longer stack runs in consecutive chunks of rows
_STACK_CELLS = 2**17


def simulate_coupled(pops, solution, members, iota=None, cost_agents=()):
    """Coupled finite-population runs, every row of a stack in one Euler loop.

    Row s is the population ``pops[s]`` with its own initial states and
    Brownian increments, and ``members[s]`` says what agent ``iota`` plays
    there: None for the mean-field feedback (System A), else a deviation
    (System B): a Policy psi(t, x_i) or a callable psi(t, x_i, x_all),
    either called once per row and step. Every agent of every row reads the
    solved cluster policy through one grid lookup per step. The rows step
    as one (S, N) state whose S M_k (row, cluster) pairs are the clusters
    of one :class:`~gmfg.coefficients.SortedClusters`, read through an
    own-cluster and a row view of it; the running costs of the
    ``cost_agents`` add up per row. A stack of more than ``_STACK_CELLS``
    (row, agent, cluster) cells runs as consecutive stacks of fewer rows.
    The populations must share their graph and cluster size. Returns one
    TrajectorySet per row, each bit-equal to the run of its row alone.
    """
    pop = pops[0]
    if len(members) != len(pops) or any(
            q.size != pop.size
            or not np.array_equal(q.graph.matrix, pop.graph.matrix) for q in pops):
        raise GridError("stacked rows need one member each and populations "
                        "with one graph and cluster size")
    if iota is None and any(psi is not None for psi in members):
        raise GridError("a deviating row needs the deviator iota")
    rows = max(1, _STACK_CELLS // (pop.N * pop.M_k))
    if len(pops) > rows:
        return [ts for lo in range(0, len(pops), rows)
                for ts in simulate_coupled(pops[lo:lo + rows], solution,
                                           members[lo:lo + rows], iota, cost_agents)]
    problem = solution.problem
    p = problem.functions
    K, S = problem.K, len(pops)
    dt = p.T / K
    table = _cluster_policy(pop, solution)
    dev = [s for s, psi in enumerate(members) if psi is not None]
    dev_controls = np.empty((S, K))
    agents = list(dict.fromkeys(cost_agents))
    costs = np.zeros((S, len(agents)))

    def drift(k, x):
        u = GridLookup(problem.x_grid, x, pop.cluster_of)(table[:, k])
        for s in dev:
            u[s, iota] = _deviation_control(members[s], problem.times[k],
                                            x[s, iota], x[s])
        if dev:
            u[dev, iota] = np.clip(u[dev, iota], p.u_min, p.u_max)
            dev_controls[dev, k] = u[dev, iota]
        clusters = SortedClusters(np.reshape(x, (S * pop.M_k, pop.size)))
        if agents:
            costs[:] += _running_costs(p, pop, clusters, x, u, agents) * dt
        return _empirical_drift(p, pop, clusters, x, u)

    # each population's noise is drawn once, straight into its first row
    paths = np.empty((S, pop.N, K + 1))
    for s, q in enumerate(pops):
        if s and q is pops[s - 1]:
            paths[s] = paths[s - 1]
        else:
            q.start_paths(p.sigma, dt, K, out=paths[s])
    euler_maruyama_steps(paths, dt, drift)
    out = []
    for s, psi in enumerate(members):
        row_costs = {i: float(c) for i, c in zip(agents, costs[s])}
        if psi is None:
            out.append(TrajectorySet(paths[s], problem.times, "A", costs=row_costs))
        else:
            out.append(TrajectorySet(paths[s], problem.times, "B", iota,
                                     dev_controls[s], row_costs))
    return out


def run_system_a(pop, solution, cost_agents=()):
    """Closed-loop finite population under the mean-field feedback."""
    return simulate_coupled([pop], solution, [None], cost_agents=cost_agents)[0]


def run_system_b(pop, solution, iota, psi, cost_agents=()):
    """System A with agent ``iota`` playing ``psi`` instead.

    ``psi`` is a Policy (feedback in own state) or a callable
    psi(t, x_i, x_all); all other agents keep the mean-field feedback but
    feel the deviation through the coupled averages.
    """
    agents = sorted(set(cost_agents) | {iota})
    return simulate_coupled([pop], solution, [psi], iota, agents)[0]


def _field_propagation(pop, solution, fields, label):
    """Propagate all agents under the cluster policy against per-cluster
    frozen drift fields.

    ``fields`` is the batch of frozen fields at the cluster nodes. The
    agents' (N, K+1) start buffer, in cluster order, is the (M_k, size,
    K+1) buffer of the closed-loop kernel
    :func:`~gmfg.control.closed_loop_steps`, so each agent reads its
    cluster's rows of the fields and of the (M_k, K+1, N_x) cluster policy.
    """
    problem = solution.problem
    p = problem.functions
    dt = p.T / problem.K
    paths = pop.start_paths(p.sigma, dt, problem.K)
    closed_loop_steps(paths.reshape(pop.M_k, pop.size, -1), dt, fields,
                      _cluster_policy(pop, solution))
    return TrajectorySet(paths, problem.times, label)


def system_c_fields(pop, solution):
    """System C's drift fields at the cluster nodes, and the number of law
    solves under the policy that the law loop took to reach them.

    The M_k cluster laws are the self-consistent laws of the finite graph
    under the cluster policy table, solved on the solver's x-grid
    (:func:`~gmfg.solver.inner_mv_consistency` on a problem whose graphon
    is the population's graph). They depend on the graph, the initial law
    and the policy only, so one solve serves every replication of a rung.
    The loop starts from the solved law of each cluster's policy vertex.
    On a ladder rung the finite graph is the rung problem's graphon at its
    own vertices, so that law is already close to the cluster laws: on
    the shipped ladder the loop's second pass moves them by about 1e-8 in
    node-law W1, where the pure-diffusion start needs six law solves.
    """
    problem = solution.problem
    clone = GMFGProblem(problem.functions, pop.graph, pop.initial_law,
                        M=pop.M_k, K=problem.K, N_x=problem.N_x, R=problem.R,
                        seed=problem.seed,
                        domain=(problem.x_grid[0], problem.x_grid[-1]))
    start = MeasureEnsemble(solution.ensemble.atoms[_policy_vertices(pop, solution)],
                            problem.times)
    _, laws, trace = inner_mv_consistency(clone, _cluster_policy(pop, solution),
                                          start=start)
    # the first solve from a start records no distance
    return _drift_fields(clone, laws), len(trace) + 1


def run_system_c(pop, solution, fields=None):
    """Law-decoupled auxiliary population on the finite graph.

    Within a cluster the auxiliary processes are i.i.d., so the drift only
    needs the M_k cluster laws, through their frozen drift ``fields``
    (:func:`system_c_fields` if None). Every agent is then propagated
    against its cluster's law with the same Brownian increments as System
    A (:func:`_field_propagation`).
    """
    if fields is None:
        fields, _ = system_c_fields(pop, solution)
    return _field_propagation(pop, solution, fields, "C")


def system_d_fields(pop, solution):
    """Frozen infinite-population drift fields at the cluster nodes."""
    problem = solution.problem
    return frozen_fields(problem.functions, problem.graphon,
                         pop.vertex_grid.midpoints, solution.ensemble,
                         problem.x_grid, drift_only=True)


def run_system_d(pop, solution, fields=None):
    """Reference agents propagated in the infinite-population ensemble."""
    if fields is None:
        fields = system_d_fields(pop, solution)
    return _field_propagation(pop, solution, fields, "D")


def _sup_mean_gap(rep_rows):
    """Sup over cells of the replication mean, SE taken at the argmax cell.

    ``rep_rows`` has shape (reps, cells...); each row is one replication's
    cell values (already pooled within exchangeable groups, if any).
    """
    rows = np.asarray(rep_rows)
    n = rows.shape[0]
    mean = rows.mean(axis=0)
    flat = int(np.argmax(mean))
    return float(mean.reshape(-1)[flat]), _std_error(rows.reshape(n, -1)[:, flat])


def _std_error(values):
    """Standard error of the mean of the replications ``values``, NaN for one."""
    n = len(values)
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan


def _pooled_gap_rows(pairs, cluster_of, exclude=None):
    """Per-replication cluster-mean absolute path gaps.

    Within a cluster the compared processes are exchangeable, so the
    per-agent expectation is a cluster-level quantity; pooling the agents
    of a cluster inside each replication estimates it without the upward
    bias a sup over thousands of noisy per-agent cells would pick up.
    """
    rows = []
    # not np.unique, whose masked-array check imports numpy.ma mid-run
    labels = sorted(set(cluster_of.tolist()))
    for a, b in pairs:
        gap = np.abs(a - b)
        pooled = []
        for l in labels:
            members = np.flatnonzero(cluster_of == l)
            if exclude is not None:
                members = members[members != exclude]
            if members.size:
                pooled.append(gap[members].mean(axis=0))
        rows.append(np.stack(pooled))
    return np.stack(rows)   # (reps, clusters, K+1)


def deviation_metrics(ts_a_reps, ts_c_reps, ts_d_reps, ts_b_family_reps=None, *,
                      cluster_of):
    """Estimate eps1 (A to C), eps2 (C to D), eps3 (B to D, non-deviators).

    Each run argument is a list over macro-replications; eps3 additionally
    takes the sup over the supplied deviation family (NaN without one).
    Within a cluster (``cluster_of``, the cluster of each agent) the
    compared processes are exchangeable, the deviator of a B run aside, so
    each replication pools a cluster's agents as samples of one expectation
    before the sup over (cluster, time). Standard errors are
    replication-level at the argmax cell. Returns the rung fields
    eps1..eps3 and their ``_se``.
    """
    n = len(ts_a_reps)
    if not (len(ts_c_reps) == len(ts_d_reps) == n) or n == 0:
        raise GridError("system runs must align across replications")
    rows1 = _pooled_gap_rows([(a.paths, c.paths) for a, c in zip(ts_a_reps, ts_c_reps)],
                             cluster_of)
    rows2 = _pooled_gap_rows([(c.paths, d.paths) for c, d in zip(ts_c_reps, ts_d_reps)],
                             cluster_of)
    eps1, se1 = _sup_mean_gap(rows1)
    eps2, se2 = _sup_mean_gap(rows2)
    eps3, se3 = math.nan, math.nan
    if ts_b_family_reps:
        for name, b_reps in ts_b_family_reps.items():
            iota = b_reps[0].deviator
            rows3 = _pooled_gap_rows(
                [(b.paths, d.paths) for b, d in zip(b_reps, ts_d_reps)],
                cluster_of, exclude=iota)
            val, se = _sup_mean_gap(rows3)
            if not (val <= eps3):
                eps3, se3 = val, se
    return {"eps1": eps1, "eps1_se": se1, "eps2": eps2, "eps2_se": se2,
            "eps3": eps3, "eps3_se": se3}


def random_lipschitz_policy(problem, seed, index):
    """Smooth random feedback table, one of the declared deviation family."""
    gen = rng.stream(seed, rng.DEVIATION, index)
    c = gen.uniform(-0.5, 0.5, 4)
    xg = problem.x_grid
    tg = problem.times
    table = (c[0] + c[1] * xg[None, :] + c[2] * np.sin(3.0 * xg)[None, :]
             + c[3] * tg[:, None])
    lo, hi = problem.functions.u_min, problem.functions.u_max
    return Policy(np.clip(table, lo, hi), xg, tg,
                  (lo, hi))


def empirical_field_best_response(pop, solution, ts_a, iota):
    """Best response against the realized finite-population ensemble.

    Builds the cluster-level empirical measure ensemble from one reshape of
    a System A run's paths and re-solves the deviator's value equation
    against it; the strongest member of the default deviation family.
    """
    problem = solution.problem
    paths = ts_a.paths.reshape(pop.M_k, pop.size, problem.K + 1)
    ens = MeasureEnsemble(np.swapaxes(paths, 1, 2), problem.times)
    p = problem.functions
    _, policy = solve_hjb(p, pop.graph, pop.midpoint(iota), ens, problem.x_grid)
    return Policy(policy[0], problem.x_grid, problem.times, (p.u_min, p.u_max))


def default_deviation_family(pop, solution, ts_a, iota):
    """Constants, the empirical-field best response, and random feedbacks."""
    p = solution.problem.functions
    lo, hi, mid = p.u_min, p.u_max, 0.5 * (p.u_min + p.u_max)
    family = {
        "const_lo": (lambda t, xi, xs: lo),
        "const_hi": (lambda t, xi, xs: hi),
        "const_mid": (lambda t, xi, xs: mid),
        "empirical_br": empirical_field_best_response(pop, solution, ts_a, iota),
    }
    for j in range(3):
        family[f"random_{j}"] = random_lipschitz_policy(solution.problem,
                                                        pop.seed, j)
    return family


def _assemble_gap_report(ts_a, b_fam, iota):
    """Nash gap of the mean-field profile for agent ``iota``: the clipped
    best paired improvement of a family member's cost (``b_fam``, runs by
    member) over the System A cost, a lower bound on the adversarial sup.
    Returns the rung fields gap, gap_se, equilibrium_cost and its SE, the
    deviation_costs (mean, SE) by member and the sorted family names."""
    eq = np.array([a.costs[iota] for a in ts_a])
    costs = {}
    best_diff, best_se = -math.inf, math.nan
    for name, runs in b_fam.items():
        vals = np.array([b.costs[iota] for b in runs])
        diff = eq - vals                      # paired improvement
        mean_diff = float(diff.mean())
        costs[name] = (float(vals.mean()), _std_error(vals))
        if mean_diff > best_diff:
            best_diff, best_se = mean_diff, _std_error(diff)
    return {"gap": max(0.0, best_diff), "gap_se": best_se,
            "equilibrium_cost": float(eq.mean()), "equilibrium_cost_se": _std_error(eq),
            "deviation_costs": costs, "family": tuple(sorted(b_fam))}


def _equilibrium_and_deviations(populations, solution, iota, family_builder,
                                seconds=None):
    """System A of every replication, then every replication x family member.

    Each is one :func:`simulate_coupled` stack with the deviator's cost
    marked; the families are built in between, since the empirical best
    response reads the System A paths. Returns the System A runs and the B
    runs by family member, in replication order.
    """
    with _timed(seconds, "system_a"):
        ts_a = simulate_coupled(populations, solution, [None] * len(populations),
                                cost_agents=(iota,))
    with _timed(seconds, "family"):
        rows = [(pop, name, psi) for pop, a in zip(populations, ts_a)
                for name, psi in family_builder(pop, solution, a, iota).items()]
    with _timed(seconds, "system_b"):
        ts_b = simulate_coupled([pop for pop, _, _ in rows], solution,
                                [psi for _, _, psi in rows], iota,
                                (iota,)) if rows else []
    b_fam = {}
    for (_, name, _), b in zip(rows, ts_b):
        b_fam.setdefault(name, []).append(b)
    return ts_a, b_fam


def perturbation_terms(ts_b_reps, pop, solution, iota=None):
    """Time-sup estimates of the drift and cost perturbations at the deviator.

    Along each realized deviating path, compares the finite-population
    averages with the frozen-ensemble brackets at the deviator's vertex:
    intra terms against the local measure, graphon terms against the
    section-weighted ensemble. Both sides are exact coefficient means, over
    the population's clusters and over the ensemble's vertex measures at
    each time node; at each node one SortedClusters holds the clusters of
    every replication, and each side is one :func:`~gmfg.control.brackets`
    call on the same coefficient plans, built once per node at the
    deviators' states. Returns the four E|.| sups and their sum.
    """
    problem = solution.problem
    s = problem.functions.structured_parts
    iota = ts_b_reps[0].deviator if iota is None else iota
    ensemble = solution.ensemble
    alpha = pop.midpoint(iota)
    v_own = int(problem.vertex_grid.nearest(alpha))
    gw = problem.vertex_grid.section_weights(problem.graphon, [alpha])   # (1, M)
    n, M_k = len(ts_b_reps), pop.M_k
    own_cluster = pop.cluster_of[iota:iota + 1]
    dev_weights = pop.stack_weights(1, [iota])   # every replication's row
    # node k of this copy is a strided (n, N) view, as a path column
    # ts.paths[:, k] is; the cluster moments round by stride and brackets
    # weights each point in its own sum, so each replication's brackets
    # equal those of its paths alone
    states = np.stack([ts.paths for ts in ts_b_reps])   # (n, N, K+1)
    u = np.stack([ts.deviator_controls if ts.deviator_controls is not None
                  else np.zeros(problem.K) for ts in ts_b_reps])   # (n, K)

    def terms(f0, l1, l2, f, l3, l4, u):
        return np.stack([f0 * u, f * u, l1 + l2 * u**2, l3 + l4 * u**2])

    names = ("f0", "l1", "l2", "f", "l3", "l4")
    sums = np.zeros((4, problem.K))
    for k in range(problem.K):
        xi, uk = states[:, iota, k], u[:, k, None]   # the deviator of each replication
        clusters = SortedClusters(np.reshape(states[:, :, k], (n * M_k, pop.size)))
        own, row = _stack_views(clusters, n, M_k, own_cluster)
        plans = {name: s[name].plan(xi) for name in names}   # both sides' points
        finite = terms(*brackets(plans, names, own, row, dev_weights), uk)
        limit = ensemble.clusters(k)
        mean_field = terms(*brackets(plans, names, limit.view([[v_own]]), limit,
                                     gw[None]), uk)
        gap = np.abs(finite - mean_field)[:, :, 0]
        for r in range(n):   # one replication at a time: a fixed summation order
            sums[:, k] += gap[:, r]
    means = dict(zip(("f0", "f", "l0", "l"), sums / n))
    out = {f"delta_{name}": float(vals.max()) for name, vals in means.items()}
    out["eps_fl"] = float(sum(means.values()).max())
    return out


def _ladder_rung(problem, size, n_reps, iota, solve, with_perturbations, timing):
    """One rung of :func:`run_ladder`: the report dict of ``problem.M``
    clusters of ``size`` agents. Its solution and runs are freed on return
    but for the System A stack that ``system_a_paths`` views: drop it
    before the next rung's solve, which sets the peak memory of a ladder."""
    M_k = problem.M
    seconds = {} if timing else None
    with _timed(seconds, "solve"):
        solution = solve(problem)
    pops = [build_population(problem.graphon, M_k, size, problem.initial_law,
                             seed=problem.seed + 7919 * (r + 1))
            for r in range(n_reps)]
    # the populations of a rung share their graph, so one law solve
    with _timed(seconds, "system_c"):
        c_fields, c_passes = system_c_fields(pops[0], solution)
        ts_c = [run_system_c(pop, solution, fields=c_fields) for pop in pops]
    with _timed(seconds, "system_d"):
        d_fields = system_d_fields(pops[0], solution)
        ts_d = [run_system_d(pop, solution, fields=d_fields) for pop in pops]
    ts_a, b_fam = _equilibrium_and_deviations(
        pops, solution, iota, default_deviation_family, seconds)
    rung = {
        "M_k": int(M_k),
        "cluster_size": int(size),
        "N": int(M_k * size),
        **deviation_metrics(ts_a, ts_c, ts_d, b_fam, cluster_of=pops[0].cluster_of),
        **_assemble_gap_report(ts_a, b_fam, iota),
        "n_reps": n_reps,
        "solution_iterations": len(solution.trace),
        "system_c_law_passes": c_passes,
        "system_a_paths": ts_a[0].paths,
    }
    if with_perturbations and b_fam:
        rung["perturbations"] = perturbation_terms(
            b_fam["empirical_br"], pops[0], solution, iota)
    if timing:
        rung["seconds"] = {phase: seconds.get(phase, 0.0) for phase in
                           ("solve", "system_a", "family", "system_b", "system_c",
                            "system_d")}
    return rung


def check_ladder(ladder, iota, graphon):
    """ConfigError naming the rungs at fault unless the (M_k, size) rungs are
    distinct, each holds agent ``iota`` and a step ``graphon`` has M_k nodes."""
    repeated = [f"{mk}:{sz}" for mk, sz in sorted({r for r in ladder if ladder.count(r) > 1})]
    small = [f"{mk}:{sz} (N={mk * sz})" for mk, sz in ladder if not 0 <= iota < mk * sz]
    off = [f"{mk}:{sz}" for mk, sz in ladder if graphon.kind == "step" and mk != graphon.cells]
    problems = [f"{what} rung(s) " + ", ".join(rungs) for what, rungs in (
        ("ladder repeats", repeated), (f"deviator {iota} is not an agent of", small),
        (f"step graphon has {graphon.cells} nodes, not the M_k of", off)) if rungs]
    if problems:
        raise ConfigError(problems[0], problems)


def run_ladder(make_problem, ladder, n_reps=20, iota=0, solver_kwargs=None,
               with_perturbations=False, timing=False):
    """Full approximate-Nash experiment over a population ladder.

    The whole ladder of rungs (M_k, cluster_size) is checked on the call
    (:func:`check_ladder`, on the first rung's graphon). The returned
    iterator then solves one rung at a time on the matching vertex grid
    (``picard_solve(problem, **solver_kwargs)``), and ``n_reps``
    independent populations run Systems A/B/C/D with shared
    per-replication noise; the B runs double as both the eps3 family sup
    and the unilateral cost comparisons. System A of every replication
    runs as one stack, and so does every replication x family member of
    System B; System C's cluster laws are solved once per rung. It yields
    one report dict per rung; ``system_c_law_passes`` is the number of
    law solves under the policy in that law loop, ``system_a_paths`` holds
    the (N, K+1) System A paths of the first replication, a view that keeps
    the rung's whole stack alive (the CLI drops it before the next rung's
    solve), and, with ``timing``, ``seconds`` the wall time of each phase
    (solve, system_a, family, system_b, system_c, system_d).
    """
    from .solver import picard_solve

    problems = [make_problem(M_k) for M_k, _ in ladder]
    if any(problem.M != M_k for problem, (M_k, _) in zip(problems, ladder)):
        raise GridError("ladder rung must align the solver grid with M_k")
    if problems:
        check_ladder(ladder, iota, problems[0].graphon)
    solve = functools.partial(picard_solve, **(solver_kwargs or {}))
    return (_ladder_rung(problem, size, n_reps, iota, solve, with_perturbations,
                         timing)
            for problem, (_, size) in zip(problems, ladder))
