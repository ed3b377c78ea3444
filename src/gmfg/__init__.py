"""Graphon mean field games: solvers, closed forms, and population experiments."""

__version__ = "0.1.0"

from .graphon import (Graphon, VertexGrid, cell_average_step, cut_norm_grid_bound,
                      h11_deviation, sample_step_graphon, section_integral,
                      step_difference)
from .coefficients import Constant, Poly2, SortedClusters
from .measures import (Measure1D, MeasureEnsemble, PathBundle, dirac, empirical,
                       ensemble_distance, ensemble_w1_sup, holder_modulus,
                       marginals, node_masses, node_quantiles, node_w1_sup,
                       normal_quantile_measure, path_distance_DT, w1,
                       w1_joint_continuity_scan)
from .control import (FrozenFields, Policy, ProblemFunctions, frozen_fields,
                      minimize_hamiltonian, policy_lipschitz, rollout_cost,
                      solve_fpk, solve_hjb, theta_clamp)
from .solver import (GMFGProblem, GMFGSolution, SensitivityReport,
                     inner_mv_consistency, picard_solve, propagate_closed_loop,
                     sensitivity_probe)
from .population import (FinitePopulation, TrajectorySet, build_population,
                         default_deviation_family, deviation_metrics,
                         empirical_field_best_response,
                         perturbation_terms, run_ladder, run_system_a,
                         run_system_b, run_system_c, run_system_d)
from .scenario import Scenario, parse_scenario
from .errors import (ConfigError, ConvergenceError, DomainError, GmfgError,
                     GridError, InvariantError, NumericalError, SizeError)
