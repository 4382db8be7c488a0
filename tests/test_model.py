import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import impulsecontrol as ic
from impulsecontrol.model import CEMETERY, INFINITY, ConfigError

from conftest import fluid_mdp


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


@pytest.fixture(scope="module")
def fluid_problem():
    return ic.fluid_problem(alpha=1.0, h=1.0, K=1.0, d=0.5)


# ---------------------------------------------------------------------------
# stage_cost


def test_stage_cost_cemetery_is_free(fluid_problem):
    for j in (0, 1):
        assert ic.stage_cost(fluid_problem, CEMETERY, 0.7, "reset", j) == 0.0
        assert ic.stage_cost(fluid_problem, CEMETERY, INFINITY, "reset", j) == 0.0


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


def test_stage_cost_rejects_non_finite(fluid_problem):
    bad = ic.ImpulseProblem(
        flow=fluid_problem.flow, reset=fluid_problem.reset,
        gradual_costs=fluid_problem.gradual_costs,
        impulse_costs=(lambda x, a: math.inf, lambda x, a: 0.0),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("reset",))
    with pytest.raises(ValueError, match="theta"):
        ic.stage_cost(bad, 0.5, 1.0, "reset", 0)


# ---------------------------------------------------------------------------
# transition


def test_transition_zero_wait_keeps_full_mass(fluid_problem):
    nxt, s = ic.transition(fluid_problem, 0.8, 0.0, "reset")
    assert nxt == 0.0 and s == 1.0


def test_transition_infinite_wait_kills(fluid_problem):
    assert ic.transition(fluid_problem, 0.8, INFINITY, "reset") == (CEMETERY, 0.0)
    assert ic.transition(fluid_problem, CEMETERY, 0.3, "reset") == (CEMETERY, 0.0)


def test_transition_fluid_reset_and_weight(fluid_problem):
    nxt, s = ic.transition(fluid_problem, 0.3, 0.7, "reset")
    assert nxt == 0.0
    assert s == pytest.approx(math.exp(-0.7), abs=1e-15)


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


def _check_cells_against_references(prob, grid, mdp, cells, jumps):
    """Each (i, k, label index) cell against stage_cost and transition.

    ``jumps`` maps a cost index to the jump of its piecewise-constant rate:
    Simpson's error at a jump is of order quadrature_step * jump, and the
    table's segment-wise rule and stage_cost's single span put their nodes in
    different places, so those costs get that tolerance instead of 1e-8.
    """
    L = mdp.n_labels
    for i, k, a in cells:
        x, theta = float(mdp.states[i]), float(mdp.theta_points[k])
        label = mdp.action_labels[a]
        q = k * L + a
        for j in range(mdp.n_costs):
            ref = ic.stage_cost(prob, x, theta, label, j,
                                step=grid.quadrature_step)
            tol = (grid.quadrature_step * jumps[j] if j in jumps
                   else 1e-8 * (1.0 + ref))
            assert abs(float(mdp.costs[j, i, q]) - ref) <= tol, (i, k, a, j)
        nxt, s = ic.transition(prob, x, theta, label)
        assert mdp.survival[q] == pytest.approx(s, rel=1e-15, abs=0.0)
        if nxt is CEMETERY:
            continue
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
    _check_cells_against_references(prob, grid, mdp, cells, jumps={})

    # every cell of the two-action config: checks the q = k*L + a layout
    prob, grid = ic.problem_from_config(CUSTOM_TWO_ACTION_DOC)
    mdp = ic.discretize(prob, grid)
    cells = np.ndindex(mdp.n_states, mdp.theta_points.size, mdp.n_labels)
    _check_cells_against_references(prob, grid, mdp, cells, jumps={1: 1.0})


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
        gradual_costs=(lambda x: 0.0 * x, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",),
        constant_rates=(0.0, None))
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
    # ~600k quadrature nodes per state here; exercises the chunked path
    prob = ic.fluid_problem(alpha=0.01, h=1.0, K=1.0, d=100.0)
    grid = ic.GridSpec.uniform(0.0, 50.0, 40, theta_max=50.0, theta_n=10,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    inf_q = (mdp.theta_points.size - 1) * mdp.n_labels
    for i in (0, 20, 39):
        x = float(mdp.states[i])
        want = x / 0.01 + 1.0 / 0.01 ** 2  # h x / alpha + h / alpha^2
        got = float(mdp.costs[1, i, inf_q])
        assert abs(got - want) <= 1e-7 * (1.0 + want)


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
    assert prob.constant_rates == (0.5, None)
    assert prob.gradual_costs[1](0.5) == 2.0 and prob.gradual_costs[1](1.5) == 3.0
    assert prob.impulse_costs[0](2.0, "a") == 2.0
    assert prob.impulse_costs[0](2.0, "b") == 4.0


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
