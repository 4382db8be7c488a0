import math

import numpy as np
import pytest

import impulsecontrol as ic
from impulsecontrol import fluidq

# benchmark parameters used throughout: alpha=1, h=1, K=1, d=0.5
BENCH = dict(alpha=1.0, h=1.0, K=1.0, d=0.5)

# two constraints: holding cost (active at 0.5) and a piecewise rate (slack)
J2_DOC = {
    "model": "custom", "alpha": 1.0, "x0": 0.0,
    "flow": {"type": "drift", "rate": 1.0},
    "reset": {"type": "constant", "value": 0.0},
    "actions": ["flush"],
    "bounds": [0.5, 1.9],
    "gradual_costs": [
        {"type": "constant", "value": 0.0},
        {"type": "polynomial", "coeffs": [0.0, 1.0]},
        {"type": "piecewise_constant", "breakpoints": [0.8, 1.6],
         "values": [2.0, 1.0, 0.2]}],
    "impulse_costs": [
        {"type": "constant", "value": 1.0},
        {"type": "constant", "value": 0.0},
        {"type": "constant", "value": 0.0}],
    "grid": {"state_min": 0.0, "state_max": 4.0, "state_n": 100,
             "theta_max": 4.0, "theta_n": 100, "quadrature_step": 0.01},
}


def fluid_mdp(d=0.5, state_n=120, theta_n=120, state_max=5.0, theta_max=5.0,
              step=0.01, extra_thetas=()):
    """Discretized fluid benchmark; extra_thetas are spliced into the grid."""
    prob = ic.fluid_problem(alpha=1.0, h=1.0, K=1.0, d=d)
    if extra_thetas:
        finite = np.unique(np.concatenate(
            [np.linspace(0.0, theta_max, theta_n), np.asarray(extra_thetas)]))
        thetas = np.append(finite, math.inf)
        grid = ic.GridSpec(np.linspace(0.0, state_max, state_n), thetas, step)
    else:
        grid = ic.GridSpec.uniform(0.0, state_max, state_n, theta_max, theta_n, step)
    return prob, grid, ic.discretize(prob, grid)


def constant_theta_policy(mdp, theta_index, label_index=0):
    """Wait theta_points[theta_index] at every state, then impulse."""
    flat = np.full(mdp.n_states, theta_index * mdp.n_labels + label_index,
                   dtype=np.intp)
    return ic.StationaryPolicy(flat, mdp.n_labels)


def threshold_policy(mdp, xbar):
    """Wait max(xbar - x, 0) snapped to the nearest finite grid theta."""
    finite = mdp.theta_points[:-1]
    flat = np.asarray(
        [int(np.argmin(np.abs(finite - max(xbar - float(x), 0.0)))) * mdp.n_labels
         for x in mdp.states], dtype=np.intp)
    return ic.StationaryPolicy(flat, mdp.n_labels)


@pytest.fixture(scope="session")
def bench_params():
    return fluidq.FluidParams(**BENCH)


@pytest.fixture(scope="session")
def bench_analytic(bench_params):
    return fluidq.solve_analytic(bench_params)


@pytest.fixture(scope="session")
def small_fluid(bench_analytic):
    """120x120 grid fluid benchmark for unit tests."""
    return fluid_mdp(state_n=120, theta_n=120,
                     state_max=4.0 * bench_analytic.x_star)


@pytest.fixture(scope="session")
def small_mdp(small_fluid):
    return small_fluid[2]


@pytest.fixture(scope="session")
def j2_mdp():
    prob, grid = ic.problem_from_config(J2_DOC)
    return ic.discretize(prob, grid)
