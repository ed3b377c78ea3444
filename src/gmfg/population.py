"""Finite populations on weighted graphs and the approximate-Nash check.

A finite population puts a cluster of agents on every node of a step
graphon. Four coupled simulations share one Brownian cache per seed:

* System A: every agent plays the solved mean-field feedback, coupled
  through empirical intra- and inter-cluster state averages.
* System B: same, except one deviator plays an arbitrary strategy.
* System C: agents decoupled through self-consistent cluster laws.
* System D: agents propagated against the frozen infinite-population
  ensemble.

The coupled averages in Systems A and B and both sides of the perturbation
terms are exact cluster brackets: each Euler step gathers every cluster's
states once (:class:`~gmfg.coefficients.SortedClusters`), and each
coefficient integrates itself against them through the sums of 1, y and
y^2 (sorted prefix sums for a clipped one). A step costs O(N M_k log n)
for N agents in M_k clusters of n, not one coefficient evaluation per pair
of agents. The limit side of the perturbation terms is the same engine
over the vertex measures of the solved ensemble.

Path gaps between the systems estimate the deviation metrics eps1..eps3,
and unilateral cost comparisons over a declared deviation family give a
lower bound on the Nash gap of the mean-field strategy profile.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .coefficients import SortedClusters
from .control import (GridLookup, Policy, brackets, euler_maruyama,
                      frozen_fields, solve_hjb)
from .errors import ConfigError, GridError, InvariantError
from .graphon import VertexGrid, sample_step_graphon
from .measures import Measure1D, MeasureEnsemble
from .solver import GMFGProblem, inner_mv_consistency, marginals, zero_drift_bundle


class FinitePopulation:
    """Agents grouped into clusters over the nodes of a step graphon."""

    def __init__(self, graph, cluster_sizes, initial_law, seed):
        if graph.kind != "step":
            raise InvariantError("population graph must be a step graphon")
        sizes = np.asarray(cluster_sizes, dtype=int)
        if sizes.ndim != 1 or sizes.size != graph.cells:
            raise GridError("cluster_sizes must list one size per graph node")
        if np.any(sizes < 1):
            raise InvariantError("every cluster needs at least one agent")
        self.graph = graph
        self.cluster_sizes = sizes
        self.M_k = int(sizes.size)
        self.N = int(sizes.sum())
        self.seed = int(seed)
        self.vertex_grid = VertexGrid(self.M_k)
        self.cluster_of = np.repeat(np.arange(self.M_k), sizes)
        self.cluster_indices = [np.flatnonzero(self.cluster_of == l)
                                for l in range(self.M_k)]
        self.initial_law = initial_law
        draws = rng.stream(seed, rng.POP_INITIAL).random(self.N)
        self.initial_states = initial_law.quantile(draws)

    def midpoint(self, agent):
        """Vertex coordinate I*(i) of the agent's cluster."""
        return float(self.vertex_grid.midpoints[self.cluster_of[agent]])

    def brownian_increments(self, K):
        return rng.stream(self.seed, rng.POP_BROWNIAN).standard_normal((self.N, K))


def build_population(g, M_k, cluster_sizes, initial_law, seed):
    """Deterministic population construction, agents indexed in cluster order.

    Analytic graphons are midpoint-sampled to a step graphon on M_k nodes;
    a step graphon is used as the graph directly when the node counts match.
    """
    if g.kind == "step":
        if g.cells != M_k:
            raise GridError(f"step graphon has {g.cells} nodes, expected {M_k}")
        graph = g
    else:
        graph = sample_step_graphon(g, M_k)
    return FinitePopulation(graph, cluster_sizes, initial_law, seed)


@dataclass
class TrajectorySet:
    """Per-agent paths of one system run plus optional cost/law attachments."""

    paths: np.ndarray                 # (N, K+1)
    times: np.ndarray
    label: str
    deviator: int = None
    deviator_controls: np.ndarray = None   # (K,)
    costs: dict = field(default_factory=dict)
    cluster_laws: MeasureEnsemble = None


def _cluster_policies(pop, solution):
    solver_mid = solution.problem.vertex_grid.midpoints
    out = []
    for l in range(pop.M_k):
        v = int(np.argmin(np.abs(solver_mid - pop.vertex_grid.midpoints[l])))
        out.append(solution.policies[v])
    return out


def _cluster_policy_table(pop, solution):
    """(M_k, K+1, N_x) policy table, one row per cluster."""
    return np.stack([pol.values for pol in _cluster_policies(pop, solution)])


def _deviation_control(psi, t, x_i, x_all):
    if isinstance(psi, Policy):
        return float(psi(t, x_i))
    return float(psi(t, x_i, x_all))


def _empirical_drift(p, pop, clusters, x, u):
    """Empirical intra + graphon-weighted inter drift for all agents."""
    W = pop.graph.matrix[pop.cluster_of] / pop.M_k   # (N, M_k)
    s = p.structured_parts
    cm0 = s["f0"].cluster_means(x, clusters.own(pop.cluster_of))[:, 0]
    cmf = s["f"].cluster_means(x, clusters)
    coef = cm0 + (W * cmf).sum(axis=1)
    return coef * u


def _row_running_cost(p, pop, clusters, x, u_i, i):
    """Marked agent's running cost against the realized population state."""
    W = pop.graph.matrix[pop.cluster_of[i]] / pop.M_k
    l1, l2, l3, l4 = brackets(p.structured_parts, ("l1", "l2", "l3", "l4"),
                              x[i], clusters, pop.cluster_of[i], W)
    return float((l1 + l2 * u_i**2 + l3 + l4 * u_i**2)[0])


def _simulate_coupled(pop, solution, psi=None, iota=None, cost_agents=(),
                      label="A"):
    problem = solution.problem
    p = problem.functions
    dt = p.T / problem.K
    table = _cluster_policy_table(pop, solution)
    costs = {i: 0.0 for i in cost_agents}
    dev_controls = np.empty(problem.K) if iota is not None else None

    def drift(k, x):
        u = GridLookup(problem.x_grid, x, pop.cluster_of)(table[:, k])
        if iota is not None:
            u[iota] = np.clip(_deviation_control(psi, problem.times[k], x[iota], x),
                              p.u_min, p.u_max)
            dev_controls[k] = u[iota]
        clusters = SortedClusters.from_concatenated(x, pop.cluster_sizes)
        for i in costs:
            costs[i] += _row_running_cost(p, pop, clusters, x, u[i], i) * dt
        return _empirical_drift(p, pop, clusters, x, u)

    paths = euler_maruyama(pop.initial_states, pop.brownian_increments(problem.K),
                           dt, p.sigma, drift)
    return TrajectorySet(paths, problem.times, label, iota, dev_controls, costs)


def run_system_a(pop, solution, cost_agents=()):
    """Closed-loop finite population under the mean-field feedback."""
    return _simulate_coupled(pop, solution, cost_agents=cost_agents, label="A")


def run_system_b(pop, solution, iota, psi, cost_agents=()):
    """System A with agent ``iota`` playing ``psi`` instead.

    ``psi`` is a Policy (feedback in own state) or a callable
    psi(t, x_i, x_all); all other agents keep the mean-field feedback but
    feel the deviation through the coupled averages.
    """
    agents = set(cost_agents) | {iota}
    return _simulate_coupled(pop, solution, psi=psi, iota=iota,
                             cost_agents=sorted(agents), label="B")


def _law_problem(pop, solution, R_law):
    problem = solution.problem
    seed = int(rng.stream(pop.seed, rng.CLUSTER_LAW).integers(2**31))
    return GMFGProblem(problem.functions, pop.graph, pop.initial_law,
                       M=pop.M_k, K=problem.K, N_x=problem.N_x,
                       R=R_law, seed=seed,
                       domain=(problem.x_grid[0], problem.x_grid[-1]))


def _field_propagation(pop, solution, fields, label, laws=None):
    """Propagate all agents against per-cluster frozen drift fields.

    ``fields`` is the batch of frozen fields at the cluster nodes; one grid
    lookup per step reads every agent's cluster row of the drift and policy
    tables.
    """
    problem = solution.problem
    p = problem.functions
    table = _cluster_policy_table(pop, solution)

    def drift(k, x):
        look = GridLookup(fields.x_grid, x, pop.cluster_of)
        return look(fields.drift_coef[:, k]) * look(table[:, k])

    paths = euler_maruyama(pop.initial_states, pop.brownian_increments(problem.K),
                           p.T / problem.K, p.sigma, drift)
    return TrajectorySet(paths, problem.times, label, cluster_laws=laws)


def run_system_c(pop, solution, tol_inner=None, R_law=2000):
    """Law-decoupled auxiliary population on the finite graph.

    Within a cluster the auxiliary processes are i.i.d., so the drift only
    needs the M_k cluster laws. These are found by the measure-consistency
    sub-iteration with ``R_law`` replicas per cluster, then every agent is
    propagated against its cluster's law with the same Brownian increments
    as System A.
    """
    clone = _law_problem(pop, solution, R_law)
    policies = _cluster_policies(pop, solution)
    start = marginals(zero_drift_bundle(clone))
    _, laws, _ = inner_mv_consistency(clone, policies, start, tol_inner)
    fields = frozen_fields(clone.functions, pop.graph, pop.vertex_grid.midpoints,
                           laws, clone.x_grid, drift_only=True)
    return _field_propagation(pop, solution, fields, "C", laws=laws)


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


@dataclass
class DeviationReport:
    """Monte-Carlo estimates of the system deviation metrics."""

    eps1: float
    eps1_se: float
    eps2: float
    eps2_se: float
    eps3: float
    eps3_se: float
    n_reps: int
    per_agent_costs: dict = field(default_factory=dict)


def _sup_mean_gap(rep_rows):
    """Sup over cells of the replication mean, SE taken at the argmax cell.

    ``rep_rows`` has shape (reps, cells...); each row is one replication's
    cell values (already pooled within exchangeable groups, if any).
    """
    rows = np.asarray(rep_rows)
    n = rows.shape[0]
    mean = rows.mean(axis=0)
    flat = int(np.argmax(mean))
    best = float(mean.reshape(-1)[flat])
    if n > 1:
        se = float(rows.reshape(n, -1)[:, flat].std(ddof=1) / math.sqrt(n))
    else:
        se = math.nan
    return best, se


def _pooled_gap_rows(pairs, cluster_of, exclude=None):
    """Per-replication cluster-mean absolute path gaps.

    Within a cluster the compared processes are exchangeable, so the
    per-agent expectation is a cluster-level quantity; pooling the agents
    of a cluster inside each replication estimates it without the upward
    bias a sup over thousands of noisy per-agent cells would pick up.
    """
    rows = []
    labels = np.unique(cluster_of)
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


def deviation_metrics(ts_a_reps, ts_c_reps, ts_d_reps, ts_b_family_reps=None,
                      cluster_of=None):
    """Estimate eps1 (A to C), eps2 (C to D), eps3 (B to D, non-deviators).

    Each argument is a list over macro-replications; eps3 additionally takes
    the sup over the supplied deviation family. When ``cluster_of`` is given
    the within-cluster exchangeability of Systems A/C/D is used to pool
    agents of a cluster as replications of the same expectation before the
    sup over (cluster, time); otherwise the sup runs over raw (agent, time)
    cells. Standard errors are replication-level at the argmax cell.
    """
    n = len(ts_a_reps)
    if not (len(ts_c_reps) == len(ts_d_reps) == n) or n == 0:
        raise GridError("system runs must align across replications")
    N = ts_a_reps[0].paths.shape[0]
    groups = cluster_of if cluster_of is not None else np.arange(N)
    rows1 = _pooled_gap_rows([(a.paths, c.paths) for a, c in zip(ts_a_reps, ts_c_reps)],
                             groups)
    rows2 = _pooled_gap_rows([(c.paths, d.paths) for c, d in zip(ts_c_reps, ts_d_reps)],
                             groups)
    eps1, se1 = _sup_mean_gap(rows1)
    eps2, se2 = _sup_mean_gap(rows2)
    eps3, se3 = math.nan, math.nan
    if ts_b_family_reps:
        for name, b_reps in ts_b_family_reps.items():
            iota = b_reps[0].deviator
            rows3 = _pooled_gap_rows(
                [(b.paths, d.paths) for b, d in zip(b_reps, ts_d_reps)],
                groups, exclude=iota)
            val, se = _sup_mean_gap(rows3)
            if not (val <= eps3):
                eps3, se3 = val, se
    return DeviationReport(eps1, se1, eps2, se2, eps3, se3, n)


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

    Builds the cluster-level empirical measure ensemble from a System A run
    and re-solves the deviator's value equation against it; the strongest
    member of the default deviation family.
    """
    problem = solution.problem
    rows = []
    for l, idx in enumerate(pop.cluster_indices):
        rows.append([Measure1D(ts_a.paths[idx, k]) for k in range(problem.K + 1)])
    ens = MeasureEnsemble.from_measures(rows, problem.times)
    _, pol = solve_hjb(problem.functions, pop.graph, pop.midpoint(iota), ens,
                       problem.x_grid)
    return pol


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


@dataclass
class NashGapReport:
    """Lower bound on the unilateral improvement available to one agent."""

    gap: float
    gap_se: float
    equilibrium_cost: float
    equilibrium_cost_se: float
    deviation_costs: dict
    family: tuple
    deviator: int
    n_reps: int


def _assemble_gap_report(eq_costs, dev_costs, iota):
    n = len(eq_costs)
    eq = np.asarray(eq_costs)
    report_costs = {}
    best_diff, best_se = -math.inf, math.nan
    for name, vals in dev_costs.items():
        vals = np.asarray(vals)
        diff = eq - vals                      # paired improvement
        mean_diff = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
        report_costs[name] = (float(vals.mean()),
                              float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan)
        if mean_diff > best_diff:
            best_diff, best_se = mean_diff, se
    return NashGapReport(
        gap=max(0.0, best_diff),
        gap_se=best_se,
        equilibrium_cost=float(eq.mean()),
        equilibrium_cost_se=float(eq.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan,
        deviation_costs=report_costs,
        family=tuple(sorted(dev_costs)),
        deviator=iota,
        n_reps=n,
    )


def epsilon_nash_gap(populations, solution, iota, family_builder=None):
    """Estimate the Nash gap of the mean-field profile for agent ``iota``.

    ``populations`` is a list of macro-replication populations sharing one
    structure but independent seeds. For each replication the deviator's
    cost is evaluated under the equilibrium feedback and under every member
    of the deviation family with common random numbers; the gap is the
    clipped best paired improvement. The family sup is a lower bound on the
    true adversarial sup, and the report keeps every member's cost so the
    family is documented.
    """
    eq_costs = []
    dev_costs = {}
    for pop in populations:
        ts_a = run_system_a(pop, solution, cost_agents=(iota,))
        eq_costs.append(ts_a.costs[iota])
        family = (family_builder(pop, solution, ts_a, iota) if family_builder
                  else default_deviation_family(pop, solution, ts_a, iota))
        for name, psi in family.items():
            ts_b = run_system_b(pop, solution, iota, psi, cost_agents=(iota,))
            dev_costs.setdefault(name, []).append(ts_b.costs[iota])
    return _assemble_gap_report(eq_costs, dev_costs, iota)


def perturbation_terms(ts_b_reps, pop, solution, iota=None):
    """Time-sup estimates of the drift and cost perturbations at the deviator.

    Along each realized deviating path, compares the finite-population
    averages with the frozen-ensemble brackets at the deviator's vertex:
    intra terms against the local measure, graphon terms against the
    section-weighted ensemble. Both sides are exact coefficient means, over
    the population's clusters and over the ensemble's vertex measures at
    each time node. Returns the four E|.| sups and their sum.
    """
    problem = solution.problem
    s = problem.functions.structured_parts
    iota = ts_b_reps[0].deviator if iota is None else iota
    ensemble = solution.ensemble
    grid = VertexGrid(ensemble.n_vertices)
    alpha = pop.midpoint(iota)
    v_own = int(np.argmin(np.abs(grid.midpoints - alpha)))
    gw = problem.graphon.evaluate(alpha, grid.midpoints) / grid.M
    own_cluster = pop.cluster_of[iota]
    W = pop.graph.matrix[own_cluster] / pop.M_k

    def terms(x, clusters, own, weights, u):
        f0, f, l1, l2, l3, l4 = brackets(s, ("f0", "f", "l1", "l2", "l3", "l4"),
                                         x, clusters, own, weights)
        return np.stack([f0 * u, f * u, l1 + l2 * u**2, l3 + l4 * u**2])

    sums = np.zeros((4, problem.K))
    for k in range(problem.K):
        xi = np.array([ts.paths[iota, k] for ts in ts_b_reps])
        u = np.array([ts.deviator_controls[k] if ts.deviator_controls is not None
                      else 0.0 for ts in ts_b_reps])
        limit = terms(xi, ensemble.clusters(k), v_own, gw, u)
        for r, ts in enumerate(ts_b_reps):
            clusters = SortedClusters.from_concatenated(ts.paths[:, k],
                                                        pop.cluster_sizes)
            emp = terms(xi[r], clusters, own_cluster, W, u[r])
            sums[:, k] += np.abs(emp[:, 0] - limit[:, r])
    means = dict(zip(("f0", "f", "l0", "l"), sums / len(ts_b_reps)))
    out = {f"delta_{name}": float(vals.max()) for name, vals in means.items()}
    out["eps_fl"] = float(sum(means.values()).max())
    return out


def run_ladder(make_problem, ladder, n_reps=20, tol=None, iota=0,
               solver_kwargs=None, R_law=2000, with_perturbations=False):
    """Full approximate-Nash experiment over a population ladder.

    For each rung (M_k, cluster_size) the game is solved once on the
    matching vertex grid, then ``n_reps`` independent populations run
    Systems A/B/C/D with shared per-replication noise; the B runs double as
    both the eps3 family sup and the unilateral cost comparisons. Returns
    one report dict per rung; ``system_a_paths`` holds the (N, K+1) System A
    paths of the first replication.
    """
    from .solver import picard_solve

    small = [(M_k, size) for M_k, size in ladder if not 0 <= iota < M_k * size]
    if small:
        raise ConfigError(f"deviator {iota} is not an agent of rung(s) "
                          + ", ".join(f"{mk}:{sz} (N={mk * sz})" for mk, sz in small))
    results = []
    for M_k, size in ladder:
        problem = make_problem(M_k)
        if problem.M != M_k:
            raise GridError("ladder rung must align the solver grid with M_k")
        solution = picard_solve(problem, tol=tol, **(solver_kwargs or {}))
        d_fields = None
        ts_a, ts_c, ts_d, b_fam = [], [], [], {}
        eq_costs, dev_costs = [], {}
        some_b = None
        some_pop = None
        for r in range(n_reps):
            pop = build_population(problem.graphon, M_k, [size] * M_k,
                                   problem.initial_law,
                                   seed=problem.seed + 7919 * (r + 1))
            if d_fields is None:
                d_fields = system_d_fields(pop, solution)
                some_pop = pop
            a = run_system_a(pop, solution, cost_agents=(iota,))
            ts_a.append(a)
            eq_costs.append(a.costs[iota])
            ts_c.append(run_system_c(pop, solution, R_law=R_law))
            ts_d.append(run_system_d(pop, solution, fields=d_fields))
            family = default_deviation_family(pop, solution, a, iota)
            for name, psi in family.items():
                b = run_system_b(pop, solution, iota, psi, cost_agents=(iota,))
                b_fam.setdefault(name, []).append(b)
                dev_costs.setdefault(name, []).append(b.costs[iota])
                some_b = b
        dev = deviation_metrics(ts_a, ts_c, ts_d, b_fam,
                                cluster_of=some_pop.cluster_of)
        gap = _assemble_gap_report(eq_costs, dev_costs, iota)
        rung = {
            "M_k": int(M_k),
            "cluster_size": int(size),
            "N": int(M_k * size),
            "eps1": dev.eps1, "eps1_se": dev.eps1_se,
            "eps2": dev.eps2, "eps2_se": dev.eps2_se,
            "eps3": dev.eps3, "eps3_se": dev.eps3_se,
            "gap": gap.gap, "gap_se": gap.gap_se,
            "equilibrium_cost": gap.equilibrium_cost,
            "deviation_costs": gap.deviation_costs,
            "family": gap.family,
            "n_reps": n_reps,
            "solution_iterations": len(solution.trace),
            "system_a_paths": ts_a[0].paths,
        }
        if with_perturbations and some_b is not None:
            rung["perturbations"] = perturbation_terms(
                b_fam["empirical_br"], some_pop, solution, iota)
        results.append(rung)
    return results
