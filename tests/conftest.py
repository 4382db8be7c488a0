import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis.internal.conjecture import providers

import impulsecontrol as ic
from impulsecontrol import fluidq, model

# Hypothesis sometimes draws one of the numeric literals of the loaded
# modules of this project, so a constant added anywhere in src/ or tests/
# would move the examples of every property test, the derandomized ones
# too.  No public setting turns that off, so its hook reads an empty set:
# a property test then moves only when its own strategies do.
# test_primal_lp.py::test_property_draws_ignore_the_project_literals
# checks that the pin holds.
NO_LOCAL_CONSTANTS = providers.Constants()
providers._get_local_constants = lambda: NO_LOCAL_CONSTANTS

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

# two actions, off-grid landings (scale reset) and label-dependent lump costs
CUSTOM_TWO_ACTION_DOC = {
    "model": "custom", "alpha": 1.0, "x0": 0.0,
    "flow": {"type": "drift", "rate": 2.0},
    "reset": {"type": "scale", "factor": 0.5},
    "actions": ["a", "b"],
    "bounds": [1.0],
    "gradual_costs": [
        {"type": "constant", "value": 0.5},
        {"type": "piecewise_constant", "breakpoints": [1.0], "values": [2.0, 3.0]}],
    "impulse_costs": [
        {"type": "polynomial", "coeffs": [1.0, 0.5],
         "action_factors": {"b": 2.0}},
        {"type": "constant", "value": 0.0}],
    "grid": {"state_min": 0.0, "state_max": 2.0, "state_n": 5,
             "theta_max": 1.0, "theta_n": 5, "quadrature_step": 0.01},
}


def custom_two_action_off_grid_doc():
    """CUSTOM_TWO_ACTION_DOC with bound 2.5 on 29 states, landings off the grid."""
    doc = json.loads(json.dumps(CUSTOM_TWO_ACTION_DOC))
    doc["bounds"] = [2.5]  # the shipped 1.0 is below every policy's cost
    # waiting theta at 0 lands at theta: the theta grid k/29 meets the state
    # grid j/14 only at 0 and 1, so landings are off the grid.  On 30 states
    # every even k lands on a grid point, and the solve's policies land only
    # there
    doc["grid"].update(state_n=29, theta_n=30)
    return doc


def fluid_doc(d, n, theta_max=None):
    """Fluid benchmark with bound d on an n x n grid over [0, 4x*].

    ``theta_max`` None means 4x* as well.  These are the benchmark's fluid
    instances (``perfbench/workloads.py``).
    """
    x_star = fluidq.solve_analytic(fluidq.FluidParams(1.0, 1.0, 1.0, d)).x_star
    tmax = 4.0 * x_star if theta_max is None else theta_max
    return {"model": "fluid", "alpha": 1.0, "h": 1.0, "K": 1.0, "d": d,
            "x0": 0.0,
            "grid": {"state_min": 0.0, "state_max": 4.0 * x_star, "state_n": n,
                     "theta_max": tmax, "theta_n": n, "quadrature_step": 0.01}}


def custom_j2_doc(d1, n):
    """The README two-constraint custom config with bounds (d1, 1.9), n x n."""
    doc = json.loads(json.dumps(J2_DOC))
    doc["bounds"] = [d1, 1.9]
    doc["gradual_costs"][2] = {"type": "piecewise_constant",
                               "breakpoints": [0.8], "values": [2.0, 0.2]}
    doc["grid"].update(state_n=n, theta_n=n)
    return doc


# the benchmark workloads' instance makers and their bands (centre in the
# middle); the solve workloads only
BANDS = {
    "fluid-accept": (lambda d: fluid_doc(d, 400, 5.0), (0.45, 0.5, 0.55)),
    "fluid-tight": (lambda d: fluid_doc(d, 300), (0.09, 0.1, 0.11)),
    "custom-j2": (lambda d1: custom_j2_doc(d1, 200), (0.47, 0.5, 0.53)),
}


def band_centre_doc(name):
    make, band = BANDS[name]
    return make(band[1])


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


def transition(problem, x, theta, a):
    """Landing state and survival weight of one step that waits a finite theta.

    The reference for ``discretize``'s landings and survival factors:
    ``(l(phi(x, theta), a), exp(-alpha*theta))``.
    """
    y = float(problem.flow(x, theta))
    return float(problem.reset(y, a)), math.exp(-problem.alpha * theta)


def csr_kernel(mdp):
    """The (n_states * n_actions) x n_states CSR of ``mdp``'s landing pairs.

    Row ``i * n_actions + q`` holds cell (i, q)'s two grid states, lower
    first, with their weights: the kernel as ``discretize`` once stored it,
    and the reference for the Bellman pass's CSR chunks.  It is built anew
    on each call, sharing no memory with ``mdp``.
    """
    n, n_actions = mdp.n_states, mdp.n_actions
    indptr = np.arange(0, 2 * n * n_actions + 1, 2, dtype=np.int32)
    return sparse.csr_matrix((mdp.next_weights.ravel().copy(),
                              mdp.next_states.ravel().copy(), indptr),
                             shape=(n * n_actions, n))


def with_sweep_chunks(mdp, rows):
    """A copy of ``mdp`` (sharing its arrays) swept in chunks of ``rows`` states.

    The copy's lazy ``sweep_blocks`` is set at once to CSR row chunks of
    ``rows`` states, whatever the table size.  Its lazy ``landing_states``
    is forced to None before its first use, so a state-free kernel takes
    the CSR chunks in the sweep and the sparse LU in ``solve_policy``,
    together.  The chunks of a constant reset's broadcast pairs are
    contiguous copies, not views.
    """
    copy = dataclasses.replace(mdp)
    copy.__dict__["sweep_blocks"] = model._row_blocks(
        mdp.next_states, mdp.next_weights, rows)
    copy.__dict__["landing_states"] = None
    return copy


def shared_landings(mdp):
    """The sorted kernel columns of state 0's rows when every grid state's
    rows are bitwise state 0's, else None.

    The reference scan for ``DiscreteMDP.landing_states``, which reads the
    layout instead: a declared constant reset's pairs are one broadcast
    row.  The weights are compared as their bit patterns.
    """
    n_actions = mdp.n_actions
    kernel = csr_kernel(mdp)
    cols = kernel.indices.reshape(mdp.n_states, 2 * n_actions)
    bits = kernel.data.view(np.uint64).reshape(cols.shape)
    for i in range(mdp.n_states):
        if not (np.array_equal(cols[i], cols[0])
                and np.array_equal(bits[i], bits[0])):
            return None
    return np.unique(cols[0])


def assert_landing_states(mdp, declared):
    """``mdp.landing_states`` is :func:`shared_landings`, at most four
    states, when the reset is a declared :class:`ic.ConstantReset`
    (``declared``), and None otherwise, whatever the scan finds."""
    want = shared_landings(mdp)
    if declared:
        assert want.size <= 4 and np.array_equal(mdp.landing_states, want)
    else:
        assert mdp.landing_states is None
    return want


def python_map_twin(prob):
    """``prob`` with its :class:`ic.ConstantReset` written as the Python map
    it declares, which discretizes to the general layout."""
    v = prob.reset.value
    return dataclasses.replace(prob, reset=lambda x, a: v + 0.0 * x)


def accept_fluid_problem():
    """The acceptance fluid problem on its 400x400 grid over [0, 4x*]."""
    x_star = fluidq.solve_analytic(fluidq.FluidParams(**BENCH)).x_star
    return (ic.fluid_problem(**BENCH),
            ic.GridSpec.uniform(0.0, 4.0 * x_star, 400, 5.0, 400, 0.01))


def traced_peak(fn):
    """(peak bytes tracemalloc sees while ``fn()`` runs, its result)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


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
def scale_mdp():
    """CUSTOM_TWO_ACTION_DOC (a scale reset) on 120 states and 121 waits."""
    doc = json.loads(json.dumps(CUSTOM_TWO_ACTION_DOC))
    doc["grid"].update(state_n=120, theta_n=120)
    return ic.discretize(*ic.problem_from_config(doc))


@pytest.fixture(scope="session")
def j2_mdp():
    prob, grid = ic.problem_from_config(J2_DOC)
    return ic.discretize(prob, grid)


@pytest.fixture(scope="session")
def accept_fluid():
    """(problem, grid, mdp) of the acceptance 400x400 fluid grid."""
    prob, grid = accept_fluid_problem()
    return prob, grid, ic.discretize(prob, grid)
