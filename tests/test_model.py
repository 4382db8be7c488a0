import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import impulsecontrol as ic
from impulsecontrol import bellman, cli, model
from impulsecontrol.model import INFINITY, ConfigError

from conftest import (BANDS, CUSTOM_TWO_ACTION_DOC, J2_DOC, accept_fluid_problem,
                      assert_landing_states, band_centre_doc, csr_kernel,
                      fluid_mdp, python_map_twin, shared_landings, traced_peak,
                      transition, with_sweep_chunks)


@pytest.fixture(scope="module")
def fluid_problem():
    return ic.fluid_problem(alpha=1.0, h=1.0, K=1.0, d=0.5)


# ---------------------------------------------------------------------------
# stage_cost


def test_stage_cost_immediate_impulse_pays_full_price(fluid_problem):
    # j=0, theta=0: no running cost, undiscounted impulse price K
    assert ic.stage_cost(fluid_problem, 0.4, 0.0, "reset", 0) == pytest.approx(1.0, abs=0)


def test_stage_cost_never_impulse_holding_total(fluid_problem):
    # rate h*(x0+t) with x0=0: integral of t*exp(-t) over [0, inf) is 1
    got = ic.stage_cost(fluid_problem, 0.0, INFINITY, "reset", 1)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_stage_cost_quadrature_matches_closed_form(fluid_problem):
    # independent oracle: h*[1/a^2 - e^{-a t}/a^2 - (t/a) e^{-a t}] at a=h=1, t=1
    expected = 1.0 - 2.0 * math.exp(-1.0)
    got = ic.stage_cost(fluid_problem, 0.0, 1.0, "reset", 1)
    assert got == pytest.approx(expected, abs=1e-8)


def test_stage_cost_simpson_agrees_with_undeclared_constant_rate():
    # constant rate NOT declared as constant exercises the Simpson path
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 2.0 + 0.0 * x, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=0.7, x0=0.0, bounds=(1.0,), actions=("a",))
    for theta in (0.3, 1.0, 4.7):
        closed = 2.0 * (-math.expm1(-0.7 * theta)) / 0.7 + math.exp(-0.7 * theta) * 1.0
        got = ic.stage_cost(prob, 0.2, theta, "a", 0)
        assert abs(got - closed) <= 1e-8 * (1.0 + closed)


@pytest.mark.parametrize("spec", [
    2.5, {"type": "constant", "value": 2.5}, {"type": "polynomial", "coeffs": [2.5]}],
    ids=["number", "constant", "one-coefficient"])
def test_numeric_rate_column_is_the_closed_form(spec):
    # cost 1's lump cost is 0, so its table is the running integral alone
    doc = json.loads(json.dumps(J2_DOC))
    doc["gradual_costs"][1] = spec
    doc["alpha"] = 0.7
    doc["grid"].update(state_n=20, theta_n=20)
    prob, grid = ic.problem_from_config(doc)
    assert prob.gradual_costs[1] == 2.5 and prob.constant_rate(1) == 2.5
    assert prob.constant_rate(2) is None
    table = ic.discretize(prob, grid).costs[1]  # one label: columns are thetas
    theta = grid.theta_points[:-1]
    closed = 2.5 * (-np.expm1(-0.7 * theta)) / 0.7
    assert np.array_equal(table[:, :-1], np.broadcast_to(closed, table[:, :-1].shape))
    assert np.all(table[:, -1] == 2.5 / 0.7)


def test_stage_cost_rejects_non_finite(fluid_problem):
    bad = ic.ImpulseProblem(
        flow=fluid_problem.flow, reset=fluid_problem.reset,
        gradual_costs=fluid_problem.gradual_costs,
        impulse_costs=(lambda x, a: math.inf, lambda x, a: 0.0),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("reset",))
    with pytest.raises(ValueError, match="theta"):
        ic.stage_cost(bad, 0.5, 1.0, "reset", 0)


# ---------------------------------------------------------------------------
# discretize


def test_discretize_fluid_landings_are_one_hot(fluid_problem):
    grid = ic.GridSpec.uniform(0.0, 1.0, 3, theta_max=1.0, theta_n=5,
                               quadrature_step=0.01)
    mdp = ic.discretize(fluid_problem, grid)
    finite_q = ~np.isinf(mdp.theta_points.repeat(mdp.n_labels))
    assert np.all(mdp.w_lo[:, finite_q] + mdp.w_hi[:, finite_q] == 1.0)
    # every landing is the grid point 0
    one_hot = np.maximum(mdp.w_lo[:, finite_q], mdp.w_hi[:, finite_q])
    assert np.all(one_hot == 1.0)
    landed = np.where(mdp.w_lo[:, finite_q] >= 0.5,
                      mdp.next_lo[:, finite_q], mdp.next_hi[:, finite_q])
    assert np.all(mdp.states[landed] == 0.0)


def test_discretize_survival_columns(small_mdp):
    L = small_mdp.n_labels
    m = small_mdp.theta_points.size
    assert np.all(small_mdp.survival[(m - 1) * L:] == 0.0)   # INFINITY column
    assert np.all(small_mdp.survival[:L] == 1.0)             # theta = 0 column
    finite = small_mdp.survival[::L][:-1]
    assert np.all(np.diff(finite) < 0.0)                     # strictly decreasing


def test_discretize_kernel_mass(small_mdp):
    assert np.all(small_mdp.w_lo >= 0.0) and np.all(small_mdp.w_hi >= 0.0)
    assert np.max(np.abs(small_mdp.w_lo + small_mdp.w_hi - 1.0)) <= 1e-12


@pytest.mark.parametrize("table", ["fluid", "custom-two-action"])
def test_kernel_is_stored_once(small_mdp, table):
    if table == "fluid":
        mdp = small_mdp
    else:
        mdp = ic.discretize(*ic.problem_from_config(CUSTOM_TWO_ACTION_DOC))
    n, n_actions = mdp.n_states, mdp.n_actions
    assert mdp.next_states.shape == mdp.next_weights.shape == (n, n_actions, 2)
    assert mdp.next_states.dtype == np.int32
    # the four per-cell tables are views of the pair arrays, not copies
    for view, store in ((mdp.next_lo, mdp.next_states),
                        (mdp.next_hi, mdp.next_states),
                        (mdp.w_lo, mdp.next_weights), (mdp.w_hi, mdp.next_weights)):
        assert view.shape == (n, n_actions)
        assert np.shares_memory(view, store)
    # their CSR is sorted and duplicate-free, so no scipy call rewrites a
    # row block's views in place
    k = csr_kernel(mdp)
    assert np.all(mdp.next_lo < mdp.next_hi) and k.has_canonical_format
    # two entries a row, so verify's kernel-mass pair sum is the row sum
    assert np.array_equal(mdp.w_lo + mdp.w_hi,
                          np.add.reduceat(k.data, k.indptr[:-1]).reshape(n, -1))
    for table in (mdp.next_states, mdp.next_weights):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1
    # the sparse product is bitwise the two-point interpolation
    W = np.random.default_rng(7).uniform(0.0, 10.0, n)
    ref = mdp.survival * (mdp.w_lo * W[mdp.next_lo] + mdp.w_hi * W[mdp.next_hi])
    assert np.array_equal((k @ W).reshape(n, n_actions) * mdp.survival, ref)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _with_reset(doc, value):
    doc = json.loads(json.dumps(doc))
    doc["reset"] = {"type": "constant", "value": value}
    return doc


TWIN_CASES = {
    "fluid_benchmark": lambda: json.loads(
        (CONFIGS / "fluid_benchmark.json").read_text()),
    "custom_j2": lambda: json.loads((CONFIGS / "custom_j2.json").read_text()),
    # two labels with their own lump costs, landing between grid states
    "two-label": lambda: _with_reset(CUSTOM_TWO_ACTION_DOC, 0.37),
    # beyond the [0, 4] truncation: every finite-wait landing clamps
    "clamped": lambda: _with_reset(J2_DOC, 10.0),
}


@pytest.mark.filterwarnings("ignore:.*clamped to the boundary:RuntimeWarning")
@pytest.mark.parametrize("case", TWIN_CASES)
def test_a_constant_reset_discretizes_as_its_python_map(case):
    # the declared reset computes state 0's landings and broadcasts them;
    # the map computes every state's, and they are the same
    prob, grid = ic.problem_from_config(TWIN_CASES[case]())
    assert isinstance(prob.reset, ic.ConstantReset)
    declared, twin = (ic.discretize(p, grid) for p in (prob, python_map_twin(prob)))
    for attr in ("next_states", "next_weights", "costs"):
        assert np.array_equal(getattr(declared, attr), getattr(twin, attr)), attr
    assert declared.clamped_cells == twin.clamped_cells
    assert (declared.clamped_cells > 0) == (case == "clamped")
    assert declared.landing_states is not None and twin.landing_states is None


def test_a_non_finite_constant_reset_is_refused_as_its_python_map():
    prob, grid = ic.problem_from_config(_with_reset(J2_DOC, math.nan))
    messages = []
    for p in (prob, python_map_twin(prob)):
        with pytest.raises(ValueError, match=r"landing state is non-finite at "
                           r"state 0\.0 \(index 0\), theta=0\.0, .*: nan") as info:
            ic.discretize(p, grid)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_a_constant_reset_solves_as_its_python_map():
    # the landing solve and the LU sum in different orders, so g* and the
    # costs agree to round-off, and the policies exactly
    prob, grid = ic.problem_from_config(J2_DOC)
    declared, twin = (ic.solve_constrained(ic.discretize(p, grid))
                      for p in (prob, python_map_twin(prob)))
    np.testing.assert_allclose(declared.g_star, twin.g_star, rtol=1e-12, atol=0.0)
    assert declared.mixture.policies == twin.mixture.policies
    np.testing.assert_allclose(declared.costs.v, twin.costs.v, rtol=1e-12, atol=0.0)
    assert declared.certificates.ok and twin.certificates.ok


def _check_cells_against_references(prob, grid, mdp, cells):
    """Each (i, k, label index) cell against stage_cost and transition.

    An infinite wait must kill exactly: survival 0, whatever the landing.

    stage_cost splits its Simpson span where the flow crosses a breakpoint
    of a piecewise rate, so a jump costs no accuracy there.
    """
    L = mdp.n_labels
    for i, k, a in cells:
        x, theta = float(mdp.states[i]), float(mdp.theta_points[k])
        label = mdp.action_labels[a]
        q = k * L + a
        for j in range(mdp.n_costs):
            ref = ic.stage_cost(prob, x, theta, label, j,
                                step=grid.quadrature_step)
            tol = 1e-8 * (1.0 + ref)
            assert abs(float(mdp.costs[j, i, q]) - ref) <= tol, (i, k, a, j)
        if math.isinf(theta):
            assert mdp.survival[q] == 0.0, (i, k, a)
            continue
        nxt, s = transition(prob, x, theta, label)
        assert mdp.survival[q] == pytest.approx(s, rel=1e-15, abs=0.0)
        assert mdp.w_lo[i, q] + mdp.w_hi[i, q] == pytest.approx(1.0, abs=1e-15)
        assert mdp.next_hi[i, q] == mdp.next_lo[i, q] + 1
        landed = (mdp.w_lo[i, q] * mdp.states[mdp.next_lo[i, q]]
                  + mdp.w_hi[i, q] * mdp.states[mdp.next_hi[i, q]])
        assert landed == pytest.approx(nxt, abs=1e-12)


def test_discretize_table_matches_stage_cost():
    # fluid benchmark: 25 random cells of a one-action table
    prob, grid, mdp = fluid_mdp(state_n=40, theta_n=40, state_max=2.0,
                                theta_max=2.0)
    rng = np.random.default_rng(3)
    cells = [(int(rng.integers(0, mdp.n_states)),
              int(rng.integers(0, mdp.theta_points.size)), 0)
             for _ in range(25)]
    _check_cells_against_references(prob, grid, mdp, cells)

    # every cell of the two-action config: checks the q = k*L + a layout
    prob, grid = ic.problem_from_config(CUSTOM_TWO_ACTION_DOC)
    mdp = ic.discretize(prob, grid)
    cells = np.ndindex(mdp.n_states, mdp.theta_points.size, mdp.n_labels)
    _check_cells_against_references(prob, grid, mdp, cells)


def test_discretize_rejects_x0_off_grid(fluid_problem):
    grid = ic.GridSpec.uniform(1.0, 2.0, 11, theta_max=1.0, theta_n=5,
                               quadrature_step=0.01)
    with pytest.raises(ValueError, match="x0"):
        ic.discretize(fluid_problem, grid)


def test_discretize_clamps_out_of_range_landings():
    # reset jumps to 10, beyond the [0, 4] truncation
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 10.0 + 0.0 * x,
        gradual_costs=(0.0, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 4.0, 9, theta_max=1.0, theta_n=5,
                               quadrature_step=0.01)
    with pytest.warns(RuntimeWarning, match="clamped"):
        mdp = ic.discretize(prob, grid)
    assert mdp.clamped_cells > 0
    finite_q = ~np.isinf(mdp.theta_points.repeat(mdp.n_labels))
    landed = np.where(mdp.w_lo[:, finite_q] >= 0.5,
                      mdp.next_lo[:, finite_q], mdp.next_hi[:, finite_q])
    assert np.all(mdp.states[landed] == 4.0)


def test_discretize_rejects_non_finite_cell():
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 0.0 * x, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: np.where(x > 0.5, math.nan, 1.0),
                       lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 1.0, 5, theta_max=1.0, theta_n=5,
                               quadrature_step=0.01)
    with pytest.raises(ValueError, match="non-finite"):
        ic.discretize(prob, grid)


def _twin_problem(scalar: bool):
    """One problem written with numpy maps, or with scalar-only maps."""
    factor = {"a": 1.0, "b": 2.0}
    if scalar:
        flow = lambda x, t: x * math.exp(-0.3 * t)
        reset = lambda x, a: 0.5 * x if x > 1.0 else x + 0.5
        rates = (lambda x: 0.2, lambda x: math.exp(-x))
        lump = lambda x, a: factor[a] * (1.0 + x if x > 1.0 else 1.0)
    else:
        flow = lambda x, t: x * np.exp(-0.3 * t)
        reset = lambda x, a: np.where(x > 1.0, 0.5 * x, x + 0.5)
        rates = (lambda x: 0.2 + 0.0 * x, lambda x: np.exp(-x))
        lump = lambda x, a: factor[a] * np.where(x > 1.0, 1.0 + x, 1.0)
    return ic.ImpulseProblem(
        flow=flow, reset=reset, gradual_costs=rates,
        impulse_costs=(lump, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(1.0,), actions=("a", "b"))


def test_scalar_only_maps_match_their_vectorized_twins():
    # math.exp and np.exp may differ in the last bit, so not bitwise
    grid = ic.GridSpec.uniform(0.0, 3.0, 16, theta_max=2.0, theta_n=9,
                               quadrature_step=0.05)
    mdps = [ic.discretize(_twin_problem(scalar), grid) for scalar in (True, False)]
    reports = [ic.validate(_twin_problem(scalar), grid) for scalar in (True, False)]

    def landed(mdp):
        return (mdp.w_lo * mdp.states[mdp.next_lo]
                + mdp.w_hi * mdp.states[mdp.next_hi])

    scalar, vec = mdps
    np.testing.assert_allclose(scalar.costs, vec.costs, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(landed(scalar), landed(vec), rtol=1e-12, atol=0.0)
    assert np.array_equal(scalar.survival, vec.survival)
    assert scalar.clamped_cells == vec.clamped_cells
    for field in ("delta_hat", "cost_sup", "semigroup_residual"):
        assert getattr(reports[0], field) == pytest.approx(
            getattr(reports[1], field), rel=1e-12, abs=1e-15)


def test_user_map_error_on_arrays_propagates():
    # only TypeError/ValueError mean "scalar-only map"; anything else is a bug
    # in the map and must not be hidden by a per-point retry
    def rate(x):
        if isinstance(x, np.ndarray):
            raise RuntimeError("rate table unavailable")
        return 1.0

    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t, reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 0.0 * x, rate),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 1.0, 5, theta_max=1.0, theta_n=5,
                               quadrature_step=0.01)
    with pytest.raises(RuntimeError, match="rate table unavailable"):
        ic.discretize(prob, grid)


def test_discretize_infinite_wait_integrals_at_small_discount():
    # the closed form, then the same problem as Python maps: ~600k
    # infinite-wait nodes per state, above _BLOCK_ELEMENTS, so the Simpson
    # path takes one state per block
    closed = ic.fluid_problem(alpha=0.01, h=1.0, K=1.0, d=100.0)
    maps = dataclasses.replace(closed, flow=lambda x, t: x + t,
                               gradual_costs=(0.0, lambda x: 1.0 * x))
    grid = ic.GridSpec.uniform(0.0, 50.0, 40, theta_max=50.0, theta_n=10,
                               quadrature_step=0.01)
    for prob in (closed, maps):
        mdp = ic.discretize(prob, grid)
        inf_q = (mdp.theta_points.size - 1) * mdp.n_labels
        for i in (0, 20, 39):
            x = float(mdp.states[i])
            want = x / 0.01 + 1.0 / 0.01 ** 2  # h x / alpha + h / alpha^2
            got = float(mdp.costs[1, i, inf_q])
            assert abs(got - want) <= 1e-7 * (1.0 + want)


# ---------------------------------------------------------------------------
# closed-form running integrals


PIECEWISE = {"type": "piecewise_constant", "breakpoints": [-0.5, 0.6, 1.3],
             "values": [0.3, 1.5, 0.4, 2.0]}
QUADRATIC = {"type": "polynomial", "coeffs": [0.5, -0.3, 0.4]}  # > 0 on R
CLOSED_FORM_CASES = {
    "decay-polynomial": ({"type": "exponential_decay", "rate": 0.7}, QUADRATIC),
    "decay-piecewise": ({"type": "exponential_decay", "rate": 0.7}, PIECEWISE),
    "drift-falling-polynomial": ({"type": "drift", "rate": -0.5}, QUADRATIC),
    "drift-falling-piecewise": ({"type": "drift", "rate": -1.5}, PIECEWISE),
    "drift-rising-piecewise": ({"type": "drift", "rate": 1.2}, PIECEWISE),
    "drift-zero-polynomial": ({"type": "drift", "rate": 0.0}, QUADRATIC),
    "drift-zero-piecewise": ({"type": "drift", "rate": 0.0}, PIECEWISE),
}
# negative states (which rise under decay), each breakpoint exactly, and
# waits down to 1e-9, where P(n, alpha * theta) takes its series
CLOSED_FORM_STATES = np.array([-2.0, -1.1, -0.5, 0.0, 0.3, 0.6, 1.0, 1.3, 2.0])
CLOSED_FORM_THETAS = np.array([0.0, 1e-9, 1e-4, 0.05, 0.3, 1.0, 2.5, INFINITY])


def _closed_form_problem(flow, rate):
    """Cost 1 is the running integral of ``rate`` alone (no lump cost)."""
    doc = {"model": "custom", "alpha": 0.8, "x0": 0.0, "flow": flow,
           "reset": {"type": "constant", "value": 0.0}, "actions": ["a"],
           "bounds": [10.0], "gradual_costs": [0.0, rate],
           "impulse_costs": [1.0, 0.0],
           "grid": {"state_min": -2.0, "state_max": 2.0, "state_n": 5,
                    "theta_max": 1.0, "theta_n": 3, "quadrature_step": 0.02}}
    prob, grid = ic.problem_from_config(doc)
    return prob, ic.GridSpec(CLOSED_FORM_STATES, CLOSED_FORM_THETAS,
                             grid.quadrature_step)


def _scalar_twin(prob, flow, rate):
    """``prob`` with its flow and rate as scalar-only Python maps."""
    c = flow["rate"]
    if flow["type"] == "drift":
        twin_flow = lambda x, t: float(x) + c * float(t)
    else:
        twin_flow = lambda x, t: float(x) * math.exp(-c * float(t))
    if rate["type"] == "polynomial":
        a0, a1, a2 = rate["coeffs"]
        twin_rate = lambda y: a0 + float(y) * (a1 + float(y) * a2)
    else:
        brk, vals = rate["breakpoints"], rate["values"]
        twin_rate = lambda y: vals[sum(b <= float(y) for b in brk)]
    return dataclasses.replace(prob, flow=twin_flow,
                               gradual_costs=(0.0, twin_rate))


def test_config_rates_and_flows_choose_the_closed_form(monkeypatch):
    fluid = ic.fluid_problem(alpha=1.0, h=2.0, K=1.0, d=0.5)
    j2, _ = ic.problem_from_config(J2_DOC)
    decay, _ = _closed_form_problem(*CLOSED_FORM_CASES["decay-piecewise"])
    for prob in (fluid, j2, decay):
        assert isinstance(prob.flow, (model.DriftFlow, model.DecayFlow))
        assert all(isinstance(r, model.PolynomialRate)
                   for r in prob.gradual_costs if callable(r))
    # they still act as maps
    assert fluid.flow(1.5, 2.0) == 3.5 and fluid.gradual_costs[1](3.0) == 6.0
    assert j2.gradual_costs[2](np.array([0.5, 0.8, 1.6, 2.0])).tolist() == [
        2.0, 1.0, 0.2, 0.2]
    assert decay.flow(2.0, 1.0) == 2.0 * math.exp(-0.7)

    def no_lattice(*args):
        raise AssertionError("a Simpson lattice was built")

    monkeypatch.setattr(model, "_simpson_lattice", no_lattice)
    grid = ic.GridSpec.uniform(0.0, 4.0, 20, 4.0, 20, 0.01)
    for prob in (fluid, j2):
        ic.discretize(prob, grid)


@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_closed_form_tables_match_the_split_simpson_references(case):
    flow, rate = CLOSED_FORM_CASES[case]
    prob, grid = _closed_form_problem(flow, rate)
    table = ic.discretize(prob, grid).costs[1]  # one label: columns are thetas
    for i, x in enumerate(grid.state_points):
        for k, theta in enumerate(grid.theta_points):
            ref = ic.stage_cost(prob, float(x), float(theta), "a", 1, step=1e-3)
            assert abs(table[i, k] - ref) <= 1e-10 * (1.0 + ref), (x, theta)

    # the scalar-only twin takes the Simpson path in discretize, blind to
    # the breakpoints: at step 0.02 its error is ~2e-8 on a smooth rate
    # (step^4 / 180 times the fourth derivative, e^{-2.2 s} under decay),
    # and about step * jump across a jump
    twin = ic.discretize(_scalar_twin(prob, flow, rate), grid).costs[1]
    if rate["type"] == "polynomial":
        np.testing.assert_allclose(twin, table, rtol=1e-7, atol=0.0)
    else:
        jump = np.max(np.abs(np.diff(rate["values"])))
        assert np.max(np.abs(twin - table)) <= grid.quadrature_step * jump

    # a flow reaches each breakpoint where it says it does
    if rate["type"] == "piecewise_constant":
        for b in rate["breakpoints"]:
            t = prob.flow.reach(grid.state_points, b)
            hit = (t > 0.0) & np.isfinite(t)
            assert np.allclose(prob.flow(grid.state_points[hit], t[hit]), b,
                               rtol=0.0, atol=1e-12)


def test_a_state_on_a_breakpoint_takes_the_piece_above():
    # stationary flow: the rate is constant along each trajectory
    prob, grid = _closed_form_problem(*CLOSED_FORM_CASES["drift-zero-piecewise"])
    table = ic.discretize(prob, grid).costs[1]
    alpha = prob.alpha
    for b, above in ((-0.5, 1.5), (0.6, 0.4), (1.3, 2.0)):
        i = int(np.flatnonzero(grid.state_points == b)[0])
        assert table[i, -1] == pytest.approx(above / alpha, rel=1e-15)


def test_incomplete_gamma_matches_scipy():
    from scipy.special import gammainc

    z = np.concatenate([[0.0], np.logspace(-12, 3, 300), [np.inf]])
    for n in range(1, 7):
        got, want = model._gamma_p(n, z), gammainc(n, z)
        assert got[0] == 0.0 and got[-1] == 1.0
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_discretize_does_not_load_scipy_special():
    # P(n, z) is numpy only: scipy.special costs tens of ms to import
    root = Path(ic.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, json, impulsecontrol as ic; "
            f"doc = json.loads({json.dumps(json.dumps(J2_DOC))}); "
            "ic.discretize(*ic.problem_from_config(doc)); "
            "assert 'scipy.special' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_only_a_state_dependent_kernel_loads_the_sparse_lu(tmp_path):
    # a constant reset sweeps and solves on its landing states, so the
    # imports of scipy.sparse (about 0.12 s) and its LU (about 0.1 s) wait
    # for a kernel that needs them
    root = Path(ic.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root), os.environ.get("PYTHONPATH", "")]))
    configs = root.parent / "configs"
    small = ["--set", "grid.state_n=40", "--set", "grid.theta_n=40"]

    def solve(config, *sets):
        argv = ["solve", "--config", str(configs / config), "--out",
                str(tmp_path / "report.json"), *small, *sets]
        return f"assert cli.main({argv!r}) == 0; "

    verify = ["verify", "--config", str(configs / "custom_j2.json")]
    unloaded = ("assert not {'scipy.sparse', 'scipy.sparse.linalg'} "
                "& set(sys.modules); ")
    code = ("import sys; from impulsecontrol import cli; " + unloaded
            + solve("fluid_benchmark.json") + unloaded
            + f"assert cli.main({verify!r}) == 0; " + unloaded
            + solve("custom_j2.json", "--set", "reset.type=scale",
                    "--set", "reset.factor=0.5")
            + "assert {'scipy.sparse', 'scipy.sparse.linalg'} <= set(sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("values", [
    [3, 1, 3, 2, 1], [], [0.5, 0.25, 0.5, -0.0, 0.0], [[4, 2], [2, 0]],
    np.asarray([7, 7, 1], dtype=np.int32)])
def test_distinct_is_np_unique(values):
    want, got = np.unique(values), model._distinct(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_solve_and_verify_do_not_load_numpy_ma(tmp_path):
    # the first np.unique or np.union1d of a process imports numpy.ma
    # (about 10 ms); the package sorts and masks instead (model._distinct)
    root = Path(ic.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root), os.environ.get("PYTHONPATH", "")]))
    config = str(root.parent / "configs" / "fluid_benchmark.json")
    solve = ["solve", "--config", config, "--out", str(tmp_path / "r.json")]
    verify = ["verify", "--config", config]
    code = ("import sys; from impulsecontrol import cli; "
            f"assert cli.main({solve!r}) == 0; "
            f"assert cli.main({verify!r}) == 0; "
            "assert 'numpy.ma' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("case", ["fluid-accept-centre", "j2"])
def test_a_state_free_run_builds_no_row_blocks(case):
    # the solve and verify's checks sweep and solve on the landing states,
    # so no chunk of the Bellman pass has a CSR
    doc = band_centre_doc("fluid-accept") if case != "j2" else J2_DOC
    prob, grid = ic.problem_from_config(doc)
    mdp = ic.discretize(prob, grid)
    assert ic.solve_constrained(mdp).certificates.ok
    checks = list(cli._verify_checks(prob, grid, mdp, 1.0, ic.validate(prob, grid)))
    assert all(passed for _, passed, _ in checks), checks
    assert mdp.landing_states is not None
    assert all(kernel is None for _, _, kernel in mdp.sweep_blocks)


BLOCK_CASES = {
    # closed forms: a drift and a linear rate, then a piecewise-constant one
    "fluid": lambda: (ic.fluid_problem(alpha=1.0, h=1.0, K=1.0, d=0.5),
                      ic.GridSpec.uniform(0.0, 2.0, 43, 2.0, 30, 0.01)),
    "custom-two-action": lambda: ic.problem_from_config(CUSTOM_TWO_ACTION_DOC),
    # scalar-only maps: each block retries point by point after the TypeError,
    # and the rate returning 0.2 comes back as a read-only broadcast view
    "scalar-twin": lambda: (_twin_problem(True), ic.GridSpec.uniform(
        0.0, 3.0, 16, theta_max=2.0, theta_n=9, quadrature_step=0.05)),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_size_does_not_change_the_tables(monkeypatch, case):
    prob, grid = BLOCK_CASES[case]()
    ref = ic.discretize(prob, grid)

    def same_tables(mdp, want):
        for attr in ("next_states", "next_weights"):
            got, exp = getattr(mdp, attr), getattr(want, attr)
            assert got.dtype == exp.dtype and got.shape == exp.shape, attr
            assert np.array_equal(got.view(np.uint8), exp.view(np.uint8)), attr
        assert mdp.clamped_cells == want.clamped_cells

    # one state per block (sub-blocks too), 7 elements (one state per
    # quadrature sub-block, one per landing block), and the whole grid as
    # one block: every entry rounds the same in any block, Python maps'
    # Simpson sums and infinite-wait products included
    for elements in (1, 7, 2 ** 40):
        monkeypatch.setattr(ic.model, "_BLOCK_ELEMENTS", elements)
        mdp = ic.discretize(prob, grid)
        assert np.array_equal(mdp.costs, ref.costs), elements
        same_tables(mdp, ref)


def test_bad_cell_is_named_in_table_order_across_blocks(monkeypatch):
    # one state per block: the negative cost-1 cell sits at state 0 (block
    # 0) and the negative cost-0 cell at state 3.0 (the last block); the
    # message names the first in (cost index, state, action) order
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x * np.exp(-t), reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 0.0 * x, lambda x: 0.0 * x),
        impulse_costs=(lambda x, a: np.where(x > 2.5, -1.0, 1.0),
                       lambda x, a: np.where(x < 0.25, -1.0, 0.0)),
        alpha=1.0, x0=0.0, bounds=(1.0,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 3.0, 7, 1.0, 3, 0.05)
    monkeypatch.setattr(ic.model, "_BLOCK_ELEMENTS", 1)
    with pytest.raises(ValueError, match=r"state 3\.0 \(index 6\), theta=0\.0, "
                       r"action='a', cost index 0: .*-1\.0"):
        ic.discretize(prob, grid)


def _solve_policy_reference(mdp, flat, rhs, transpose):
    """The row-slice assembly of I - P_f that solve_policy replaced."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    n = mdp.n_states
    P = csr_kernel(mdp)[np.arange(n) * mdp.n_actions + flat]
    P.data *= np.repeat(mdp.survival[flat], 2)
    A = (sparse.eye(n, format="csc") - (P.T if transpose else P).tocsc()).tocsc()
    try:
        lu = splu(A)
    except RuntimeError:
        return None
    with np.errstate(all="ignore"):
        x = lu.solve(rhs)
    return x if np.all(np.isfinite(x)) else None


def _assert_solves_match(got, want, bitwise):
    if bitwise:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("table", ["fluid", "custom-two-action"])
def test_solve_policy_matches_the_row_slice_assembly(small_mdp, table):
    # the scale reset's kernel depends on the state, so it is factored and
    # matches the reference bitwise; the fluid's constant reset is solved
    # on its landing states instead, equal up to round-off
    if table == "fluid":
        mdp = small_mdp
    else:
        mdp = ic.discretize(*ic.problem_from_config(CUSTOM_TWO_ACTION_DOC))
    bitwise = table != "fluid"
    assert (mdp.landing_states is None) == bitwise
    n = mdp.n_states
    rng = np.random.default_rng(5)
    # random positive waits, every label and never impulse; the fluid's
    # resets land on state 0 itself, so diagonal entries get summed
    policies = [rng.integers(mdp.n_labels, mdp.n_actions, n) for _ in range(4)]
    policies.append(np.full(n, mdp.n_actions - 1))
    rhs = rng.uniform(0.0, 1.0, (n, 2))
    for flat in policies:
        for transpose in (False, True):
            got = mdp.solve_policy(flat, rhs, transpose=transpose)
            want = _solve_policy_reference(mdp, flat, rhs, transpose)
            assert got.shape == (n, 2)
            _assert_solves_match(got, want, bitwise)
            _assert_solves_match(mdp.solve_policy(flat, rhs[:, 0], transpose),
                                 want[:, 0], bitwise)
    # zero wait everywhere: survival 1 around a cycle, singular
    zero_wait = np.zeros(n, dtype=np.intp)
    for transpose in (False, True):
        assert _solve_policy_reference(mdp, zero_wait, rhs, transpose) is None
        assert mdp.solve_policy(zero_wait, rhs, transpose) is None


def _split_landing_mdp(value, declared=True):
    """Both labels reset to ``value`` on states 0, 0.1, ..., 3: a state-free
    kernel whose landings split between two grid states.  ``declared``
    builds the reset as a ConstantReset; otherwise as the Python map it
    declares, which takes the general path (row blocks and LU)."""
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t, reset=ic.ConstantReset(value),
        gradual_costs=(lambda x: 0.5 + 0.0 * x, lambda x: x),
        impulse_costs=(lambda x, a: 1.0 + 0.5 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(1.0,), actions=("a", "b"))
    if not declared:
        prob = python_map_twin(prob)
    return ic.discretize(prob, ic.GridSpec.uniform(0.0, 3.0, 31, 1.0, 10, 0.01))


def test_split_landings_are_solved_on_four_states(monkeypatch):
    mdp = _split_landing_mdp(2.05)
    assert mdp.landing_states.tolist() == [0, 1, 20, 21]
    assert mdp.w_lo[0, :2] == pytest.approx([0.5, 0.5], abs=1e-12)
    n = mdp.n_states
    rng = np.random.default_rng(11)
    policies = [rng.integers(mdp.n_labels, mdp.n_actions, n) for _ in range(4)]
    rhs = rng.uniform(0.0, 1.0, (n, 2))
    for flat in policies:
        for transpose in (False, True):
            got = mdp.solve_policy(flat, rhs, transpose=transpose)
            want = _solve_policy_reference(mdp, flat, rhs, transpose)
            _assert_solves_match(got, want, bitwise=False)
    # the landing solve never factors the grid; the Python-map twin and a
    # row-chunk copy take the LU, bitwise the reference
    want = _solve_policy_reference(mdp, policies[0], rhs, False)
    for copy in (_split_landing_mdp(2.05, declared=False),
                 with_sweep_chunks(mdp, 2)):
        assert copy.landing_states is None
        assert np.array_equal(copy.solve_policy(policies[0], rhs), want)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", None)
    _assert_solves_match(mdp.solve_policy(policies[0], rhs), want, bitwise=False)
    monkeypatch.undo()
    # zero wait everywhere, under either label: a survival-1 cycle through
    # a split landing, singular on both paths.  Here its pivots round to
    # zero; a rounded nonzero pivot hides such a cycle from both paths alike
    # (a landing anywhere in 0.01-0.04 does), so policy evaluation looks
    # for the cycle in the policy first (see below)
    for label in (0, 1):
        zero_wait = np.full(n, label, dtype=np.intp)
        for transpose in (False, True):
            assert _solve_policy_reference(mdp, zero_wait, rhs, transpose) is None
            assert mdp.solve_policy(zero_wait, rhs, transpose) is None
    # the balance of the transposed solve's occupation measure holds
    for flat in policies:
        mu = ic.occupation_measure(mdp, ic.StationaryPolicy(flat, mdp.n_labels))
        assert ic.check_characteristic(mdp, mu) <= 1e-14 * (1.0 + mu.total)


def _many_landings_mdp():
    """The flow forgets the state, so every state lands where state 0 does,
    but on one grid state per wait: 100 landing states."""
    prob = ic.ImpulseProblem(
        flow=lambda x, t: t + 0.0 * x, reset=lambda y, a: y,
        gradual_costs=(lambda x: 0.5 + 0.0 * x, lambda x: x),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(1.0,), actions=("a",))
    return ic.discretize(prob, ic.GridSpec.uniform(0.0, 3.0, 100, 3.0, 100, 0.01))


def test_a_state_free_kernel_with_many_landings_is_factored(monkeypatch):
    # the reset is no ConstantReset, so the kernel sweeps in row blocks and
    # each policy solve factors the grid, however the landings fall
    mdp = _many_landings_mdp()
    assert shared_landings(mdp).size == 100
    assert mdp.landing_states is None
    W = np.linspace(0.0, 1.0, mdp.n_states)
    cost = mdp.costs[0]
    q = mdp.survival * (mdp.w_lo * W[mdp.next_lo] + mdp.w_hi * W[mdp.next_hi])
    q += cost
    best, q_best, _ = bellman._sweep(mdp, W, cost)
    assert np.array_equal(best, q.argmin(axis=1))
    assert np.array_equal(q_best, q.min(axis=1))
    flat = np.random.default_rng(3).integers(1, mdp.n_actions, mdp.n_states)
    rhs = np.ones(mdp.n_states)
    want = [_solve_policy_reference(mdp, flat, rhs, t) for t in (False, True)]
    factored = []
    real = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda A: factored.append(1) or real(A))
    for transpose in (False, True):
        assert np.array_equal(mdp.solve_policy(flat, rhs, transpose),
                              want[transpose])
    assert len(factored) == 2


LANDING_CASES = {
    **{f"{name}-centre": (lambda name=name: ic.discretize(
        *ic.problem_from_config(band_centre_doc(name)))) for name in BANDS},
    "j2": lambda: ic.discretize(*ic.problem_from_config(J2_DOC)),
    "split-0.07": lambda: _split_landing_mdp(0.07),
    "split-0.01": lambda: _split_landing_mdp(0.01),
    "split-2.05": lambda: _split_landing_mdp(2.05),
    "split-2.05-map": lambda: _split_landing_mdp(2.05, declared=False),
    "scale-reset": lambda: ic.discretize(
        *ic.problem_from_config(CUSTOM_TWO_ACTION_DOC)),
    "many-landings": _many_landings_mdp,
}


@pytest.mark.parametrize("case", LANDING_CASES)
def test_landing_states_is_the_bounded_reference_scan(case):
    # (the one-state-off maps are held in test_bellman)
    mdp = LANDING_CASES[case]()
    declared = case not in ("split-2.05-map", "scale-reset", "many-landings")
    want = assert_landing_states(mdp, declared)
    assert (want is None) == (case == "scale-reset")
    # a declared reset's pairs are one row, broadcast over the states
    for pairs in (mdp.next_states, mdp.next_weights):
        assert (pairs.strides[0] == 0) == declared
        assert np.array_equal(pairs, np.broadcast_to(pairs[0], pairs.shape)) \
            == (want is not None)


def test_a_pickled_state_free_mdp_keeps_its_broadcast_row():
    # the fluid-accept centre: the copy stores one row, shares the
    # landing states and solves bitwise as the original
    mdp = ic.discretize(*ic.problem_from_config(band_centre_doc("fluid-accept")))
    mdp.sweep_blocks  # a cached value is not pickled
    copy = pickle.loads(pickle.dumps(mdp))
    assert "sweep_blocks" not in copy.__dict__
    for name in ("next_states", "next_weights"):
        got, want = getattr(copy, name), getattr(mdp, name)
        assert got.strides[0] == 0 and not got.flags.writeable
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(copy.landing_states, mdp.landing_states)
    for name in ("states", "theta_points", "survival", "costs"):
        assert np.array_equal(getattr(copy, name), getattr(mdp, name))
    want, got = ic.solve_constrained(mdp), ic.solve_constrained(copy)
    assert np.array_equal(got.g_star, want.g_star) and got.h_star == want.h_star
    assert got.W0 == want.W0 and np.array_equal(got.solution.W, want.solution.W)
    assert got.mixture == want.mixture
    assert np.array_equal(got.costs.v, want.costs.v)
    assert [p.h for p in got.trace] == [p.h for p in want.trace]


def test_a_pickled_state_dependent_mdp_keeps_its_pairs(scale_mdp):
    copy = pickle.loads(pickle.dumps(scale_mdp))
    assert copy.landing_states is None
    for name in ("next_states", "next_weights"):
        got, want = getattr(copy, name), getattr(scale_mdp, name)
        assert got.strides == want.strides and np.array_equal(got, want)


@pytest.mark.parametrize("value", [0.01, 0.02, 0.03, 0.04, 0.05, 0.09])
@pytest.mark.parametrize("label", [0, 1])
def test_a_split_survival_one_cycle_is_refused_before_any_solve(value, label):
    # zero wait everywhere, so every state keeps its mass, on the cycle
    # through the landing's two grid states, on the landing path and the
    # LU path alike.  Before the check, a landing at 0.01-0.04 left nonzero
    # pivots and returned 3.6e16-1e31
    for declared in (True, False):
        mdp = _split_landing_mdp(value, declared)
        zero_wait = ic.StationaryPolicy(np.full(mdp.n_states, label), mdp.n_labels)
        named = r"grid state indices \[0, 1\]$"
        with pytest.raises(ValueError, match="system is singular: .*" + named):
            ic.eval_policy(mdp, zero_wait)
        with pytest.raises(ValueError, match="not finite: .*" + named):
            ic.occupation_measure(mdp, zero_wait)


def test_only_the_states_that_keep_their_mass_are_trapped():
    mdp = _split_landing_mdp(0.07)
    wait = mdp.n_labels  # the least positive wait, label "a"
    # zero wait at states 0 and 1 only: they land on each other and keep
    # their mass; every other state waits, so loses mass
    flat = np.full(mdp.n_states, wait)
    flat[:2] = 0
    f = ic.StationaryPolicy(flat, mdp.n_labels)
    assert ic.policy_eval._trapped_cycles(mdp, f).tolist() == [0, 1]
    with pytest.raises(ValueError, match=r"indices \[0, 1\]$"):
        ic.occupation_measure(mdp, f)
    # zero wait everywhere but at states 0 and 1: all mass reaches them
    flat = np.zeros(mdp.n_states, dtype=np.intp)
    flat[:2] = wait
    f = ic.StationaryPolicy(flat, mdp.n_labels)
    assert ic.policy_eval._trapped_cycles(mdp, f).size == 0
    V = ic.eval_policy(mdp, f).v
    assert np.all(np.isfinite(V)) and V[0] > 0.0
    mu = ic.occupation_measure(mdp, f)
    assert ic.check_characteristic(mdp, mu) <= 1e-14 * (1.0 + mu.total)


def test_simpson_lattice_is_linspace_per_span():
    # spans of 0.01 and 0.003 need 2 intervals, 0.254 and 1.303 more; on
    # [0.267, 1.57] the last node 28 * (1.303 / 28) + 0.267 misses 1.57
    points = np.array([0.0, 0.01, 0.013, 0.267, 1.57])
    step = 0.05
    nodes, weights, starts = ic.model._simpson_lattice(points[:-1], points[1:], step)
    ends = np.append(starts[1:], nodes.size)
    sizes = []
    for k, (a, b) in enumerate(zip(points[:-1], points[1:])):
        tt, w = nodes[starts[k]:ends[k]], weights[starts[k]:ends[k]]
        n = tt.size - 1
        sizes.append(n)
        assert n % 2 == 0 and (b - a) / n <= step
        assert np.array_equal(tt, np.linspace(a, b, n + 1))
        assert w.sum() == pytest.approx(b - a, rel=1e-14, abs=0.0)
    assert sizes == [2, 2, 6, 28]

    # Simpson is exact on cubics, span by span
    def f(t):
        return 1.0 - 2.0 * t + 3.0 * t ** 2 + 4.0 * t ** 3

    def antiderivative(t):
        return t - t ** 2 + t ** 3 + t ** 4

    got = np.add.reduceat(f(nodes) * weights, starts)
    want = antiderivative(points[1:]) - antiderivative(points[:-1])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    # the one-span case is what stage_cost integrates with
    tt, w, starts = ic.model._simpson_lattice(0.2, 1.7, step)
    assert starts.tolist() == [0]
    assert np.array_equal(tt, np.linspace(0.2, 1.7, 31))
    assert np.dot(w, f(tt)) == pytest.approx(
        antiderivative(1.7) - antiderivative(0.2), rel=1e-14, abs=0.0)


def test_discretize_peak_memory_is_a_small_multiple_of_its_output():
    # the acceptance fluid grid: 400x400 on [0, 4x*], theta_max 5
    prob, grid = accept_fluid_problem()
    ic.discretize(prob, ic.GridSpec.uniform(0.0, 1.0, 5, 1.0, 5, 0.01))  # warm
    peak, mdp = traced_peak(lambda: ic.discretize(prob, grid))
    output = mdp.costs.nbytes + mdp.next_weights.nbytes + mdp.next_states.nbytes
    # the tables are written in place; only block-sized workspaces remain
    assert peak <= 2 * output, peak / output


@pytest.mark.parametrize("reset", [{"type": "constant", "value": 0.37},
                                   {"type": "scale", "factor": 0.5}],
                         ids=["constant", "scale"])
def test_footprint_counts_the_pairs_only_where_they_are_stored(monkeypatch,
                                                              reset):
    # 8 B per cost per cell, plus 2 x (4 + 8) B of pairs and a 4 B row
    # pointer per cell unless the pairs are one broadcast row
    doc = json.loads(json.dumps(CUSTOM_TWO_ACTION_DOC))
    doc["reset"] = reset
    prob, grid = ic.problem_from_config(doc)
    cells = grid.state_points.size * grid.theta_points.size * len(prob.actions)
    tables = cells * (8 * prob.n_costs + (28 if reset["type"] == "scale" else 0))
    monkeypatch.setattr(model, "physical_memory", lambda: tables)
    model.check_footprint(prob, grid)
    monkeypatch.setattr(model, "physical_memory", lambda: tables - 1)
    with pytest.raises(ValueError, match=f"needs {tables} bytes of cost and "
                       "kernel tables"):
        model.check_footprint(prob, grid)


def test_footprint_counts_a_lattice_only_where_simpson_runs(fluid_problem,
                                                            monkeypatch):
    # a 1e-9 step asks for a lattice of ~3e12 bytes, which only a Python-map
    # rate makes discretize build; stage_cost builds one for any rate that
    # is not a number, so the references are sized for the closed form too
    monkeypatch.setattr(model, "physical_memory", lambda: 2 ** 36)
    grid = ic.GridSpec.uniform(0.0, 4.0, 30, 4.0, 30, 1e-9)
    mapped = dataclasses.replace(fluid_problem,
                                 gradual_costs=(0.0, lambda x: 1.0 * x))
    model.check_footprint(fluid_problem, grid)
    needle = "grid.quadrature_step=1e-09 needs a running-cost quadrature lattice"
    for problem, references in ((fluid_problem, True), (mapped, False),
                                (mapped, True)):
        with pytest.raises(ValueError, match=needle):
            model.check_footprint(problem, grid, references=references)
    peak, _ = traced_peak(lambda: pytest.raises(
        ValueError, ic.discretize, mapped, grid).match(needle))
    assert peak <= 2 ** 20, peak  # refused before any table or lattice
    assert ic.discretize(fluid_problem, grid).n_states == 30


# ---------------------------------------------------------------------------
# validate


def test_validate_fluid_passes(fluid_problem):
    grid = ic.GridSpec.uniform(0.0, 4.0, 50, theta_max=4.0, theta_n=50,
                               quadrature_step=0.01)
    rep = ic.validate(fluid_problem, grid)
    assert rep.delta_hat == 1.0 and rep.delta_ok
    assert rep.bounded_ok and math.isfinite(rep.cost_sup)
    assert rep.flow_ok and rep.ok
    assert rep.messages() == []


def test_validate_flags_zero_impulse_cost():
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 0.0 * x, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 4.0, 50, theta_max=4.0, theta_n=50,
                               quadrature_step=0.01)
    rep = ic.validate(prob, grid)
    assert rep.delta_hat == 0.0 and not rep.delta_ok and not rep.ok
    assert any("positive" in m for m in rep.messages())


def test_validate_cost_sup_scales_with_h():
    prob = ic.fluid_problem(alpha=1.0, h=2.0, K=1.0, d=0.5)
    grid = ic.GridSpec.uniform(0.0, 4.0, 50, theta_max=4.0, theta_n=50,
                               quadrature_step=0.01)
    rep = ic.validate(prob, grid)
    assert rep.cost_sup == pytest.approx(2.0 * 4.0 + 1.0)
    assert rep.bounded_ok


def test_validate_catches_broken_flow():
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t * t,   # not a semiflow
        reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 0.0 * x, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 4.0, 20, theta_max=4.0, theta_n=20,
                               quadrature_step=0.01)
    rep = ic.validate(prob, grid)
    assert not rep.flow_ok and not rep.ok


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.0, 10.0), s=st.floats(0.0, 5.0), t=st.floats(0.0, 5.0))
def test_exponential_decay_flow_is_a_semiflow(x, s, t):
    flow = lambda x_, t_: x_ * np.exp(-0.3 * t_)
    assert flow(x, 0.0) == x
    assert abs(flow(flow(x, s), t) - flow(x, s + t)) <= 1e-9


# ---------------------------------------------------------------------------
# configuration parsing


def test_problem_from_config_fluid_roundtrip():
    doc = {"model": "fluid", "alpha": 2.0, "h": 3.0, "K": 1.5, "d": 0.25,
           "grid": {"state_min": 0.0, "state_max": 2.0, "state_n": 10,
                    "theta_max": 2.0, "theta_n": 10, "quadrature_step": 0.01}}
    prob, grid = ic.problem_from_config(doc)
    assert prob.alpha == 2.0 and prob.bounds == (0.25,)
    assert prob.gradual_costs[1](2.0) == 6.0
    assert prob.impulse_costs[0](1.0, "reset") == 1.5
    assert grid.state_points.size == 10


def test_problem_from_config_custom_cost_tables():
    prob, grid = ic.problem_from_config(CUSTOM_TWO_ACTION_DOC)
    assert prob.flow(1.0, 0.5) == 2.0
    assert prob.reset(2.0, "a") == 1.0
    assert prob.gradual_costs[0] == 0.5
    assert prob.gradual_costs[1](0.5) == 2.0 and prob.gradual_costs[1](1.5) == 3.0
    assert prob.impulse_costs[0](2.0, "a") == 2.0
    assert prob.impulse_costs[0](2.0, "b") == 4.0
    # labels 1 and true are equal in Python but print as "1" and "True":
    # action_factors names them as printed
    doc = json.loads(json.dumps(CUSTOM_TWO_ACTION_DOC))
    doc["actions"] = [1, True]
    doc["impulse_costs"][0]["action_factors"] = {"True": 2.0}
    prob, grid = ic.problem_from_config(doc)
    assert prob.impulse_costs[0](2.0, 1) == 2.0
    assert prob.impulse_costs[0](2.0, True) == 4.0
    doc["actions"] = [1]
    doc["impulse_costs"][0]["action_factors"] = {"1": 3.0}
    prob, grid = ic.problem_from_config(doc)
    assert prob.impulse_costs[0](2.0, 1) == 6.0


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d.pop("alpha"), "alpha"),
    (lambda d: d.update(model="nope"), "unknown model"),
    (lambda d: d["grid"].pop("state_n"), "state_n"),
    (lambda d: d.update(d=-1.0), "d > 0"),
])
def test_problem_from_config_errors_name_the_field(mutate, needle):
    doc = {"model": "fluid", "alpha": 1.0, "h": 1.0, "K": 1.0, "d": 0.5,
           "grid": {"state_min": 0.0, "state_max": 2.0, "state_n": 10,
                    "theta_max": 2.0, "theta_n": 10, "quadrature_step": 0.01}}
    mutate(doc)
    with pytest.raises(ConfigError, match=needle):
        ic.problem_from_config(doc)


def test_grid_spec_invariants():
    with pytest.raises(ValueError, match="increasing"):
        ic.GridSpec(np.array([0.0, 0.0, 1.0]), np.array([0.0, math.inf]), 0.01)
    with pytest.raises(ValueError, match="INFINITY"):
        ic.GridSpec(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.01)
    with pytest.raises(ValueError, match="quadrature_step"):
        ic.GridSpec(np.array([0.0, 1.0]), np.array([0.0, math.inf]), 0.0)


def test_grid_spec_rejects_single_state_point():
    # one point leaves no bracket for interpolated landings
    with pytest.raises(ValueError, match="at least two"):
        ic.GridSpec(np.array([0.0]), np.array([0.0, 1.0, math.inf]), 0.01)


def test_impulse_problem_invariants():
    with pytest.raises(ValueError, match="alpha"):
        ic.fluid_problem(alpha=-1.0, h=1.0, K=1.0, d=0.5)
    with pytest.raises(ValueError, match="bounds"):
        ic.ImpulseProblem(
            flow=lambda x, t: x + t, reset=lambda x, a: 0.0,
            gradual_costs=(lambda x: 0.0, lambda x: x),
            impulse_costs=(lambda x, a: 1.0, lambda x, a: 0.0),
            alpha=1.0, x0=0.0, bounds=(-0.5,), actions=("a",))
    # each label prints as one policy-table field, told apart from the others
    for actions in ((), ("a", "a"), ("a", "a b"), ("a", "b\t"), ("x#y",), ("",)):
        with pytest.raises(ValueError, match="'actions' must be one or more"):
            ic.ImpulseProblem(
                flow=lambda x, t: x + t, reset=lambda x, a: 0.0,
                gradual_costs=(lambda x: 0.0, lambda x: x),
                impulse_costs=(lambda x, a: 1.0, lambda x, a: 0.0),
                alpha=1.0, x0=0.0, bounds=(0.5,), actions=actions)



NAN = math.nan


def _problem(**kw):
    args = dict(flow=lambda x, t: x + t, reset=lambda x, a: 0.0,
                gradual_costs=(lambda x: 0.0, lambda x: x),
                impulse_costs=(lambda x, a: 1.0, lambda x, a: 0.0),
                alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    return ic.ImpulseProblem(**dict(args, **kw))


@pytest.mark.parametrize("build, needle", [
    (lambda: ic.GridSpec.uniform(0.0, NAN, 10, 1.0, 10, 0.01),
     "state_points must be finite"),
    (lambda: ic.GridSpec.uniform(0.0, 1.0, 10, NAN, 10, 0.01),
     "theta_points must start at 0.0"),
    (lambda: ic.GridSpec(np.array([0.0, 1.0]),
                         np.array([0.0, NAN, math.inf]), 0.01),
     "before the INFINITY sentinel must be finite"),
    (lambda: ic.GridSpec.uniform(0.0, 1.0, 10, 1.0, 10, NAN),
     "quadrature_step must be > 0, got nan"),
    (lambda: ic.GridSpec(np.array([0.0, 1.0, math.inf]),
                         np.array([0.0, math.inf]), 0.01),
     "state_points must be finite"),
    (lambda: ic.GridSpec(np.array([0.0, 1.0]),
                         np.array([0.0, 1.0, -math.inf]), 0.01),
     "end with INFINITY"),
    (lambda: ic.fluid_problem(alpha=NAN, h=1.0, K=1.0, d=0.5), "alpha"),
    (lambda: ic.fluid_problem(alpha=1.0, h=NAN, K=1.0, d=0.5), "h=nan"),
    (lambda: ic.fluid_problem(alpha=1.0, h=1.0, K=NAN, d=0.5), "K=nan"),
    (lambda: ic.fluid_problem(alpha=1.0, h=1.0, K=1.0, d=NAN), "d=nan"),
    (lambda: _problem(bounds=(NAN,)), "bounds"),
    (lambda: _problem(x0=NAN), "x0 must be finite"),
], ids=["state_max", "theta_max", "nan_theta", "quadrature_step", "inf_state",
        "neg_inf_sentinel", "alpha", "h", "K", "d", "bound", "x0"])
def test_nan_and_infinite_inputs_are_rejected(build, needle):
    with pytest.raises(ValueError, match=needle):
        build()
