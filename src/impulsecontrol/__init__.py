"""Constrained optimal impulse control of deterministic flows, discounted costs.

The pipeline: define an :class:`~impulsecontrol.model.ImpulseProblem`,
discretize it onto a grid, solve the multiplier-modified Bellman equation per
Lagrange multiplier, maximize the concave dual functional by cutting planes,
and mix the cut policies into a feasible mixture with complementary
slackness.  The fluid-buffer benchmark in :mod:`impulsecontrol.fluidq` has a
closed-form optimum used as the end-to-end oracle.
"""

from .model import (INFINITY, ConfigError, ConstantReset, DecayFlow,
                    DiscreteMDP, DriftFlow, GridSpec, ImpulseProblem,
                    PolynomialRate, ValidationReport, discretize,
                    fluid_problem, problem_from_config, stage_cost, validate)
from .bellman import (BellmanConfig, BellmanSolution, StationaryPolicy,
                      argmin_set, policy_iteration, solve_W)
from .policy_eval import (CostVector, MixedPolicy, OccupationMeasure,
                          check_characteristic, eval_mixture, eval_policy,
                          occupation_measure, policy_from_table,
                          policy_rule, policy_to_table, simulate_oracle,
                          threshold_rule)
from .dual import (BellmanNotConvergedError, CertificateReport,
                   DualBracketError, DualPoint, DualResult, dual_value,
                   maximize_dual, mix_weights, solve_constrained)
from . import fluidq

__all__ = [
    "INFINITY", "ConfigError", "ConstantReset", "DecayFlow", "DiscreteMDP",
    "DriftFlow", "GridSpec", "ImpulseProblem", "PolynomialRate", "ValidationReport",
    "discretize", "fluid_problem", "problem_from_config", "stage_cost",
    "validate",
    "BellmanConfig", "BellmanSolution", "StationaryPolicy", "argmin_set",
    "policy_iteration", "solve_W",
    "CostVector", "MixedPolicy", "OccupationMeasure", "check_characteristic",
    "eval_mixture", "eval_policy", "occupation_measure", "policy_from_table",
    "policy_rule", "policy_to_table", "simulate_oracle", "threshold_rule",
    "BellmanNotConvergedError", "CertificateReport", "DualBracketError",
    "DualPoint", "DualResult", "dual_value", "maximize_dual", "mix_weights",
    "solve_constrained",
    "fluidq",
]

__version__ = "0.1.0"
