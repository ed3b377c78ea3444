"""Do mean-field strategies survive on finite graphs? A small ladder.

Clusters of agents sit on the nodes of sampled finite graphs and play the
infinite-population feedback. Four coupled simulations per replication
measure how far the finite system drifts from its limit (eps1: empirical
vs law coupling; eps2: finite graph vs graphon) and how much one agent can
gain by deviating unilaterally (the Nash gap, a lower bound estimated over
a declared family of deviations including an empirical-field best response).
Scaled-down replication count keeps this near a minute; the
acceptance suite runs the same ladder at full statistical strength.
"""

import numpy as np

from gmfg import (Constant, GMFGProblem, Graphon, Poly2, ProblemFunctions,
                  normal_quantile_measure, run_ladder)


def make_problem(M):
    functions = ProblemFunctions.structured(
        Poly2(x=-1.0, y=1.0, clip=(-2.0, 2.0)),   # intra mean reversion
        Constant(1.0),                             # graphon-scaled control
        Poly2(xx=1.0, xy=-2.0, yy=1.0),            # track the local field
        Constant(0.5), Constant(0.0), Constant(1.0),
        control_set=(-1.0, 1.0), sigma=0.3, T=0.5)
    # mild connectivity slope: every vertex type exists at every rung
    kernel = Graphon.from_table([[0.6, 0.45], [0.45, 0.3]])
    return GMFGProblem(functions, kernel,
                       normal_quantile_measure(0.0, 0.3, 129),
                       M=M, K=64, N_x=201, R=4000, seed=3)


rungs = list(run_ladder(make_problem, [(2, 25), (4, 50), (8, 100)], n_reps=12,
                        iota=0, solver_kwargs={"tol": 0.12}))

print(f"{'M_k':>4} {'|C|':>5} {'N':>5} {'eps1':>9} {'eps2':>9} {'gap':>9}")
for r in rungs:
    print(f"{r['M_k']:>4} {r['cluster_size']:>5} {r['N']:>5} "
          f"{r['eps1']:>9.4f} {r['eps2']:>9.4f} {r['gap']:>9.5f}")

best = rungs[-1]
print("\ndeviation family costs at the largest rung (deviator = agent 0):")
for name, (cost, se) in sorted(best["deviation_costs"].items()):
    print(f"  {name:<14s} {cost:.5f} +- {se:.5f}")
print(f"  equilibrium    {best['equilibrium_cost']:.5f}")

slope = np.polyfit(np.log([r["cluster_size"] for r in rungs]),
                   np.log([r["eps1"] for r in rungs]), 1)[0]
print(f"\neps1 scaling exponent vs cluster size: {slope:.2f}")
print("the agent-level CLT predicts -0.5; a dozen replications leave this")
print("estimate noisy, the acceptance suite pins it down with twenty")
