"""Constrained optimal impulse control of deterministic flows, discounted costs.

The pipeline: define an :class:`~impulsecontrol.model.ImpulseProblem`,
discretize it onto a grid, solve the multiplier-modified Bellman equation per
Lagrange multiplier, maximize the concave dual functional by cutting planes,
and mix the cut policies into a feasible mixture with complementary
slackness.  The fluid-buffer benchmark in :mod:`impulsecontrol.fluidq` has a
closed-form optimum used as the end-to-end oracle.
"""

from .model import (CEMETERY, INFINITY, ConfigError, DiscreteMDP, GridSpec,
                    ImpulseProblem, ValidationReport, discretize,
                    fluid_problem, problem_from_config, stage_cost,
                    transition, validate)
from .bellman import (BellmanConfig, BellmanSolution, StationaryPolicy,
                      argmin_set, bellman_backup, policy_iteration, residual,
                      solve_W)
from .policy_eval import (CostVector, MixedPolicy, OccupationMeasure,
                          check_characteristic, eval_mixture, eval_policy,
                          occupation_measure, policy_from_table,
                          policy_to_table, simulate_oracle, threshold_rule)
from .dual import (BellmanNotConvergedError, CertificateReport,
                   DualBracketError, DualPoint, DualResult,
                   MixtureInfeasibleError, dual_value, maximize_dual,
                   mix_weights, solve_constrained, verify_optimality)
from . import fluidq

__all__ = [
    "CEMETERY", "INFINITY", "ConfigError", "DiscreteMDP", "GridSpec",
    "ImpulseProblem", "ValidationReport", "discretize", "fluid_problem",
    "problem_from_config", "stage_cost", "transition", "validate",
    "BellmanConfig", "BellmanSolution", "StationaryPolicy", "argmin_set",
    "bellman_backup", "policy_iteration", "residual", "solve_W",
    "CostVector", "MixedPolicy", "OccupationMeasure", "check_characteristic",
    "eval_mixture", "eval_policy", "occupation_measure", "policy_from_table",
    "policy_to_table", "simulate_oracle", "threshold_rule",
    "BellmanNotConvergedError", "CertificateReport", "DualBracketError",
    "DualPoint", "DualResult", "MixtureInfeasibleError",
    "dual_value", "maximize_dual", "mix_weights", "solve_constrained",
    "verify_optimality",
    "fluidq",
]

__version__ = "0.1.0"
