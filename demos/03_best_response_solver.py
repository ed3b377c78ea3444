"""One vertex's optimal control problem against a frozen mean field.

Freezing the measure ensemble turns the game into a classical stochastic
control problem per vertex: a backward semi-implicit sweep of the value
equation, with the Hamiltonian minimized in closed form for control-affine
data. Here the frozen field is a point mass at zero, the drift is the
control itself and the cost is x^2 + u^2 inside a wide control box, so the
value function has the exact form tanh(T - t) x^2 + sigma^2 log cosh(T - t).
"""

import numpy as np

from gmfg import (Constant, Graphon, Policy, Poly2, ProblemFunctions,
                  frozen_fields, rollout_cost, solve_hjb)
from gmfg.measures import MeasureEnsemble

sigma, T, K = 0.3, 1.0, 1500
one, zero = Constant(1.0), Constant(0.0)

problem = ProblemFunctions.structured(
    one, zero, Poly2(xx=1.0), one, zero, zero,
    control_set=(-10.0, 10.0), sigma=sigma, T=T)

times = np.linspace(0.0, T, K + 1)
frozen = MeasureEnsemble(np.zeros((1, K + 1, 1)), times)
x_grid = np.linspace(-6.0, 6.0, 1201)

# one vertex: (1, K+1, N_x) value and feedback tables
(value,), (table,) = solve_hjb(problem, Graphon.constant(0.0), 0.5, frozen, x_grid)
policy = Policy(table, x_grid, times, (problem.u_min, problem.u_max))
dx = x_grid[1] - x_grid[0]

exact0 = np.tanh(T) * x_grid**2 + sigma**2 * np.log(np.cosh(T))
mask = np.abs(x_grid) <= 2.0
print("max |V(0,x) - analytic| on |x| <= 2:",
      f"{np.abs(value[0] - exact0)[mask].max():.2e}")
print("policy at (t=0, x=1):", f"{policy(0.0, 1.0):+.4f}",
      " analytic -tanh(T) x =", f"{-np.tanh(T):+.4f}")
# the zero-slope boundary creates a thin policy layer at the box edges, so
# measure the slope away from it
interior = np.abs(x_grid) <= 4.0
slopes = np.abs(np.diff(table[:, interior], axis=1)) / dx
print("interior policy slope (analytic tanh(T) = 0.76):", f"{slopes.max():.3f}")

# Dynamic-programming consistency: running the extracted policy from x0
# reproduces the value there up to Monte-Carlo and grid error.
fields = frozen_fields(problem, Graphon.constant(0.0), 0.5, frozen, x_grid)
x0 = 1.0
mean, se = rollout_cost(problem, fields, policy, x0, 20_000, seed=42)
print(f"\nrollout cost from x0={x0}: {mean:.4f} +- {se:.4f}")
print(f"value function V(0, x0):  {np.interp(x0, x_grid, value[0]):.4f}")
