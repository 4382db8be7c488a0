import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import impulsecontrol as ic
from impulsecontrol import model, policy_eval
from impulsecontrol.policy_eval import _walk

from conftest import (CUSTOM_TWO_ACTION_DOC, constant_theta_policy, csr_kernel,
                      custom_two_action_off_grid_doc, fluid_mdp,
                      threshold_policy, traced_peak)


@pytest.fixture(scope="module")
def fluid():
    return fluid_mdp(state_n=100, theta_n=100, state_max=5.0, theta_max=5.0)


def _cycle_oracle(theta_hat, alpha=1.0, h=1.0, K=1.0):
    """Geometric-series closed forms for the reset cycle of period theta_hat."""
    e = math.exp(-alpha * theta_hat)
    denom = 1.0 - e
    V0 = K * e / denom
    V1 = h * (1.0 / alpha ** 2 - e / alpha ** 2 - theta_hat / alpha * e) / denom
    return V0, V1


# ---------------------------------------------------------------------------
# eval_policy


def test_eval_threshold_policy_matches_cycle_closed_form(fluid):
    prob, grid, mdp = fluid
    for k in (17, 33, 61):
        pol = constant_theta_policy(mdp, k)
        theta = float(mdp.theta_points[k])
        V0, V1 = _cycle_oracle(theta)
        got = ic.eval_policy(mdp, pol)
        assert got.v[0] == pytest.approx(V0, abs=1e-10)
        assert got.v[1] == pytest.approx(V1, abs=1e-9)


def test_eval_never_impulse(fluid):
    _, _, mdp = fluid
    pol = constant_theta_policy(mdp, mdp.theta_points.size - 1)
    got = ic.eval_policy(mdp, pol)
    assert got.v[0] == 0.0
    assert got.v[1] == pytest.approx(1.0, abs=1e-9)  # h/alpha^2


def test_eval_zero_wait_cycle_is_flagged_infinite(fluid):
    _, _, mdp = fluid
    pol = constant_theta_policy(mdp, 0)  # impulse immediately, forever
    got = ic.eval_policy(mdp, pol)
    assert math.isinf(got.v[0]) and not got.finite
    assert got.v[1] == 0.0  # the loop accrues no holding cost


@pytest.mark.parametrize("reset, visits", [(0.3, [0, 1]), (0.25, [0])])
def test_walk_follows_the_heavier_landing_lower_on_ties(reset, visits):
    # from x0 = 0, wait 1.0 and reset to 0.3 (weight 0.6 on grid state 0.5)
    # or to 0.25 (0.5 on both 0.0 and 0.5, a tie, so the walk goes low)
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t, reset=lambda x, a: reset + 0.0 * x,
        gradual_costs=(0.0, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 4.0, 9, theta_max=2.0, theta_n=9,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    _, _, entries, cycle, split = _walk(mdp, constant_theta_policy(mdp, 4))
    assert split and list(entries) == visits and cycle == visits[-1:]


def test_eval_falls_back_to_linear_solve_on_split_landings():
    # reset to 0.3 lands between grid points, forcing the fixed-point solve
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 0.3 + 0.0 * x,
        gradual_costs=(0.0, lambda x: 1.0 * x),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=1.0, x0=0.0, bounds=(0.5,), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 4.0, 9, theta_max=2.0, theta_n=9,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    pol = constant_theta_policy(mdp, 4)
    v = ic.eval_policy(mdp, pol).v
    # oracle: the value equation restricted to the policy, solved densely
    n = mdp.n_states
    rows = np.arange(n)
    q = pol.flat
    T = np.zeros((n, n))
    T[rows, mdp.next_lo[rows, q]] += mdp.survival[q] * mdp.w_lo[rows, q]
    T[rows, mdp.next_hi[rows, q]] += mdp.survival[q] * mdp.w_hi[rows, q]
    ref = np.linalg.solve(np.eye(n) - T, mdp.costs[:, rows, q].T)
    assert np.allclose(v, ref[mdp.x0_index], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# a cycle entered after a prefix: from x0 = 2 every policy below resets to 0,
# and the cycle through 0 starts one step in


@pytest.fixture(scope="module")
def prefix():
    prob = replace(ic.fluid_problem(alpha=1.0, h=1.0, K=1.0, d=0.5), x0=2.0)
    grid = ic.GridSpec.uniform(0.0, 5.0, 101, 5.0, 101, 0.01)
    return prob, grid, ic.discretize(prob, grid)


def test_eval_cycle_after_prefix_matches_linear_solve(prefix):
    _, _, mdp = prefix
    assert mdp.x0_index == 40
    rows = np.arange(mdp.n_states)
    for k in (17, 33, 61):
        pol = constant_theta_policy(mdp, k)
        V = mdp.solve_policy(pol.flat, mdp.costs[:, rows, pol.flat].T)
        got = ic.eval_policy(mdp, pol).v
        assert np.allclose(got, V[mdp.x0_index], rtol=1e-12, atol=0.0)


def test_zero_wait_cycle_after_prefix_is_infinite_where_it_accrues(prefix):
    # wait theta_17 at x0, then impulse at 0 forever: every impulse costs K,
    # and only the first wait accrues holding cost
    _, _, mdp = prefix
    flat = np.zeros(mdp.n_states, dtype=np.intp)
    flat[mdp.x0_index] = 17 * mdp.n_labels
    pol = ic.StationaryPolicy(flat, mdp.n_labels)
    v = ic.eval_policy(mdp, pol).v
    theta = float(mdp.theta_points[17])
    e = math.exp(-theta)
    assert math.isinf(v[0])
    assert v[1] == pytest.approx(3.0 * (1.0 - e) - theta * e, abs=1e-10)
    with pytest.raises(ValueError, match=r"grid state indices \[0\]$"):
        ic.occupation_measure(mdp, pol)


def test_zero_wait_cycle_after_a_huge_prefix_cost_is_still_infinite():
    # the impulse at 3 costs ~3e17, so adding the cycle's unit impulses to
    # the running total leaves it unchanged
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 0.0 * x,
        gradual_costs=(0.0,),
        impulse_costs=(lambda x, a: 1.0 + 1e17 * x,),
        alpha=1.0, x0=2.0, bounds=(), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 4.0, 5, theta_max=1.0, theta_n=2,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    flat = np.zeros(mdp.n_states, dtype=np.intp)
    flat[mdp.x0_index] = 1
    assert ic.eval_policy(mdp, ic.StationaryPolicy(flat, 1)).v[0] == math.inf


def test_eval_cycle_entered_after_the_discount_underflows():
    # 0 -> 2 -> 4 -> 6 -> 8 -> 8: the cycle at 8 starts four waits of
    # exp(-200) in, where the running discount is exactly 0
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: np.minimum(x, 8.0),
        gradual_costs=(1.0,),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x,),
        alpha=100.0, x0=0.0, bounds=(), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 8.0, 9, theta_max=2.0, theta_n=3,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    pol = constant_theta_policy(mdp, 2)
    V = mdp.solve_policy(pol.flat, mdp.costs[:, np.arange(9), pol.flat].T)
    got = ic.eval_policy(mdp, pol).v
    assert np.allclose(got, V[mdp.x0_index], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# occupation measures


def test_occupation_mass_at_origin_is_geometric(fluid):
    _, _, mdp = fluid
    for k in (17, 33, 61):
        pol = constant_theta_policy(mdp, k)
        mu = ic.occupation_measure(mdp, pol)
        theta = float(mdp.theta_points[k])
        expect = 1.0 / (1.0 - math.exp(-theta))
        assert mu.state_marginal[mdp.x0_index] == pytest.approx(expect, abs=1e-8)
        assert ic.check_characteristic(mdp, mu) <= 1e-9
        # measure-weighted costs reproduce the policy values
        v = ic.eval_policy(mdp, pol).v
        dual = np.tensordot(mu.mass, mdp.costs, axes=([0, 1], [1, 2]))
        assert np.all(np.abs(dual - v) <= 1e-8 * (1.0 + np.abs(v)))


def test_occupation_total_mass_one_for_never_impulse(fluid):
    _, _, mdp = fluid
    pol = constant_theta_policy(mdp, mdp.theta_points.size - 1)
    mu = ic.occupation_measure(mdp, pol)
    assert mu.total == pytest.approx(1.0, abs=1e-12)


def test_characteristic_detects_scaled_measure(fluid):
    _, _, mdp = fluid
    pol = constant_theta_policy(mdp, 33)
    mu = ic.occupation_measure(mdp, pol)
    scaled = ic.OccupationMeasure(cells=mu.cells, values=2.0 * mu.values,
                                  shape=mu.shape, total=2.0 * mu.total)
    assert ic.check_characteristic(mdp, scaled) >= 0.9


def test_characteristic_accepts_hand_built_measure(fluid):
    # all mass at the origin cell, scaled by the geometric factor
    _, _, mdp = fluid
    k = 47
    pol = constant_theta_policy(mdp, k)
    theta = float(mdp.theta_points[k])
    value = 1.0 / (1.0 - math.exp(-theta))
    mu = ic.OccupationMeasure(
        cells=[mdp.x0_index * mdp.n_actions + k * mdp.n_labels], values=[value],
        shape=(mdp.n_states, mdp.n_actions), total=value)
    assert ic.check_characteristic(mdp, mu) <= 1e-9


def _dense_characteristic(mdp, mass):
    """The balance residual over a dense (states x actions) mass table: the
    transposed kernel applied to the surviving mass of every cell."""
    out = mass.sum(axis=1).astype(float)
    out[mdp.x0_index] -= 1.0
    inflow = csr_kernel(mdp).T @ (mdp.survival * mass).ravel()
    return float(np.max(np.abs(out - inflow)))


def _mixture_measure(mdp, weights, policies):
    """The weighted sum of the policies' measures, on the union of their cells."""
    mus = [ic.occupation_measure(mdp, f) for f in policies]
    cells = np.unique(np.concatenate([mu.cells for mu in mus]))
    values = np.zeros(cells.size)
    for w, mu in zip(weights, mus):
        values[np.searchsorted(cells, mu.cells)] += w * mu.values
    return ic.OccupationMeasure(cells=cells, values=values, shape=mus[0].shape,
                                total=sum(w * mu.total for w, mu in zip(weights, mus)))


def _off_grid_mdp():
    return ic.discretize(*ic.problem_from_config(custom_two_action_off_grid_doc()))


def _on_grid_measures(mdp):
    return [ic.occupation_measure(mdp, constant_theta_policy(mdp, k))
            for k in (17, 33, 61, mdp.theta_points.size - 1)]


def _split_measures(mdp):
    return [ic.occupation_measure(mdp, constant_theta_policy(mdp, k, a))
            for k in (1, 7, 12, 25) for a in (0, 1)]


def _mixed_measures(mdp):
    f, g = constant_theta_policy(mdp, 7, 1), constant_theta_policy(mdp, 12, 0)
    return [_mixture_measure(mdp, (0.3, 0.7), (f, g))]


@pytest.mark.parametrize("case", ["fluid-on-grid", "two-action-split-landings",
                                  "two-policy-mixture"])
def test_characteristic_is_bitwise_the_dense_inflow(fluid, case):
    mdp = fluid[2] if case == "fluid-on-grid" else _off_grid_mdp()
    mus = {"fluid-on-grid": _on_grid_measures,
           "two-action-split-landings": _split_measures,
           "two-policy-mixture": _mixed_measures}[case](mdp)
    for mu in mus:
        assert ic.check_characteristic(mdp, mu) == _dense_characteristic(mdp, mu.mass)
        assert ic.check_characteristic(mdp, mu) <= 1e-9
    w_lo = csr_kernel(mdp).data[0::2][np.concatenate([mu.cells for mu in mus])]
    split = np.any((w_lo > 0.0) & (w_lo < 1.0))
    assert split == (case != "fluid-on-grid")
    if case == "two-policy-mixture":
        # two cells charged in some states
        assert np.bincount(mus[0].cells // mdp.n_actions).max() == 2


def test_occupation_measure_round_trips_through_its_cells(fluid):
    _, _, mdp = fluid
    for mu in _on_grid_measures(mdp) + _mixed_measures(_off_grid_mdp()):
        mass = mu.mass
        assert mass.shape == mu.shape
        assert np.array_equal(mass.reshape(-1)[mu.cells], mu.values)
        assert np.count_nonzero(mass) == np.count_nonzero(mu.values)
        again = ic.OccupationMeasure(cells=np.flatnonzero(mass),
                                     values=mass[mass != 0.0], shape=mu.shape,
                                     total=mu.total)
        assert np.array_equal(again.mass, mass)
        assert np.array_equal(mu.state_marginal, mass.sum(axis=1))
    # a deterministic policy's measure charges one cell per state
    mu = _on_grid_measures(mdp)[0]
    assert mu.cells.size == mdp.n_states
    assert np.array_equal(mu.cells // mdp.n_actions, np.arange(mdp.n_states))


@pytest.mark.parametrize("cells, values", [
    ([3, 3], [1.0, 1.0]), ([4, 2], [1.0, 1.0]), ([-1], [1.0]), ([6], [1.0]),
    ([0, 1], [1.0]), ([[0, 1]], [[1.0, 1.0]])],
    ids=["repeated", "decreasing", "negative", "beyond-table", "one-value-short",
         "not-flat"])
def test_occupation_measure_refuses_cells_it_cannot_place(cells, values):
    with pytest.raises(ValueError, match="increasing flat indices"):
        ic.OccupationMeasure(cells=cells, values=values, shape=(2, 3), total=1.0)


def test_occupation_and_characteristic_allocate_no_dense_table(accept_fluid):
    # a deterministic policy's measure and its balance residual need O(n)
    # memory, far below one (states x actions) float64 table
    _, _, mdp = accept_fluid
    pol = constant_theta_policy(mdp, 120)
    table = mdp.n_states * mdp.n_actions * 8
    peak, resid = traced_peak(
        lambda: ic.check_characteristic(mdp, ic.occupation_measure(mdp, pol)))
    assert resid <= 1e-9
    assert peak < table, peak / table


def test_occupation_raises_on_zero_wait_cycle(fluid):
    _, _, mdp = fluid
    pol = constant_theta_policy(mdp, 0)
    with pytest.raises(ValueError, match="survival-1 cycle"):
        ic.occupation_measure(mdp, pol)


# ---------------------------------------------------------------------------
# mixtures


def test_single_policy_mixture_equals_eval(fluid):
    _, _, mdp = fluid
    pol = constant_theta_policy(mdp, 33)
    mix = ic.MixedPolicy(weights=(1.0,), policies=(pol,))
    assert np.array_equal(ic.eval_mixture(mdp, mix).v, ic.eval_policy(mdp, pol).v)


def test_even_mixture_averages_costs(fluid):
    _, _, mdp = fluid
    pa, pb = constant_theta_policy(mdp, 20), constant_theta_policy(mdp, 60)
    va, vb = ic.eval_policy(mdp, pa).v, ic.eval_policy(mdp, pb).v
    mix = ic.MixedPolicy(weights=(0.5, 0.5), policies=(pa, pb))
    assert np.allclose(ic.eval_mixture(mdp, mix).v, 0.5 * (va + vb),
                       rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(w=st.floats(1e-6, 1.0 - 1e-6))
def test_mixture_linearity_property(w):
    _, _, mdp = fluid_mdp(state_n=30, theta_n=30, state_max=3.0, theta_max=3.0)
    pa, pb = constant_theta_policy(mdp, 10), constant_theta_policy(mdp, 25)
    va, vb = ic.eval_policy(mdp, pa).v, ic.eval_policy(mdp, pb).v
    mix = ic.MixedPolicy(weights=(w, 1.0 - w), policies=(pa, pb))
    assert np.allclose(ic.eval_mixture(mdp, mix).v, w * va + (1 - w) * vb,
                       rtol=1e-12, atol=1e-12)


def test_degenerate_mixture_at_analytic_threshold(bench_analytic):
    # theta grid contains x* exactly, so the threshold cycle hits V1 = d
    x_star = bench_analytic.x_star
    _, _, mdp = fluid_mdp(state_n=60, theta_n=60, state_max=4.0, theta_max=4.0,
                          extra_thetas=(x_star,))
    k = int(np.argmin(np.abs(mdp.theta_points[:-1] - x_star)))
    assert float(mdp.theta_points[k]) == pytest.approx(x_star, abs=1e-15)
    pol = constant_theta_policy(mdp, k)
    mix = ic.MixedPolicy(weights=(0.5, 0.5), policies=(pol, pol))
    v = ic.eval_mixture(mdp, mix)
    assert v.v[1] == pytest.approx(0.5, abs=1e-9)
    assert v.v[0] == pytest.approx(bench_analytic.V0, abs=1e-9)


def test_mixed_policy_invariants(fluid):
    _, _, mdp = fluid
    pol = constant_theta_policy(mdp, 33)
    with pytest.raises(ValueError, match="sum to 1"):
        ic.MixedPolicy(weights=(0.6, 0.6), policies=(pol, pol))
    with pytest.raises(ValueError, match="equal length"):
        ic.MixedPolicy(weights=(1.0,), policies=(pol, pol))
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        ic.MixedPolicy(weights=(0.0, 1.0), policies=(pol, pol))


# ---------------------------------------------------------------------------
# continuous-time oracle


def test_oracle_single_impulse_cost(fluid):
    prob, _, mdp = fluid
    theta_hat = float(mdp.theta_points[33])
    got = ic.simulate_oracle(prob, ic.threshold_rule(prob, theta_hat), horizon=1)
    assert got.v[0] == pytest.approx(math.exp(-theta_hat), abs=1e-12)


def test_oracle_never_impulse_holding_cost(fluid):
    prob, _, _ = fluid
    got = ic.simulate_oracle(prob, ic.threshold_rule(prob, math.inf), horizon=5)
    assert got.v[0] == 0.0
    assert got.v[1] == pytest.approx(1.0, abs=1e-9)


def test_oracle_converges_to_geometric_series(fluid):
    prob, grid, mdp = fluid
    for k in (17, 61):
        pol = constant_theta_policy(mdp, k)
        grid_v = ic.eval_policy(mdp, pol).v
        oracle = ic.simulate_oracle(prob, ic.policy_rule(mdp, pol), horizon=5000,
                                    step=grid.quadrature_step)
        assert np.all(np.abs(oracle.v - grid_v) <= 1e-6 * (1.0 + np.abs(grid_v)))


def test_oracle_accepts_threshold_and_callable(fluid):
    prob, _, _ = fluid
    theta_hat = 1.25
    rule = ic.threshold_rule(prob, theta_hat)
    via_rule = ic.simulate_oracle(prob, rule, horizon=400)
    V0, V1 = _cycle_oracle(theta_hat)
    assert via_rule.v[0] == pytest.approx(V0, abs=1e-8)
    assert via_rule.v[1] == pytest.approx(V1, abs=1e-8)


def _oracle_every_step(prob, rule, horizon, step):
    """simulate_oracle's sum with every step integrated, and the steps."""
    totals, steps = np.zeros(prob.n_costs), []
    x, t = prob.x0, 0.0
    for _ in range(horizon):
        disc = math.exp(-prob.alpha * t)
        if disc < 1e-18:
            break
        theta, a = rule(x)
        steps.append((x, theta, a))
        for j in range(prob.n_costs):
            totals[j] += disc * model.stage_cost(prob, x, theta, a, j, step=step)
        if math.isinf(theta):
            break
        t += theta
        x = float(prob.reset(float(prob.flow(x, theta)), a))
    return totals, steps


def _counted_oracle(monkeypatch, prob, rule, horizon, step):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:4])
        return model.stage_cost(*args, **kwargs)

    monkeypatch.setattr(policy_eval, "stage_cost", counting)
    return ic.simulate_oracle(prob, rule, horizon=horizon, step=step), calls


@pytest.mark.parametrize("k", [17, 61])
def test_oracle_integrates_each_distinct_step_once(monkeypatch, fluid, k):
    # the constant reset returns to x0 every cycle: one distinct step
    prob, grid, mdp = fluid
    rule = ic.policy_rule(mdp, constant_theta_policy(mdp, k))
    want, steps = _oracle_every_step(prob, rule, 4000, grid.quadrature_step)
    got, calls = _counted_oracle(monkeypatch, prob, rule, 4000,
                                 grid.quadrature_step)
    assert len(steps) > 10 and len(set(steps)) == 1
    assert sorted(calls) == sorted(set(steps)) * prob.n_costs
    assert np.array_equal(got.v, want)


def test_oracle_integrates_every_step_of_a_scale_reset(monkeypatch):
    # x_{k+1} = 1.3 - x_k / 2 under the scale reset: no state repeats
    prob, grid = ic.problem_from_config(CUSTOM_TWO_ACTION_DOC)
    rule = ic.threshold_rule(prob, 1.3)
    want, steps = _oracle_every_step(prob, rule, 30, grid.quadrature_step)
    got, calls = _counted_oracle(monkeypatch, prob, rule, 30,
                                 grid.quadrature_step)
    assert len(steps) == len(set(steps)) == 30
    assert len(calls) == 30 * prob.n_costs
    assert np.array_equal(got.v, want)


# ---------------------------------------------------------------------------
# policy tables


def test_policy_table_roundtrip(fluid):
    _, _, mdp = fluid
    pol = threshold_policy(mdp, 1.3)
    text = ic.policy_to_table(mdp, pol)
    back = ic.policy_from_table(mdp, text)
    assert back == pol and hash(back) == hash(pol)
    # labels are matched as printed: 1 and True are equal in Python but
    # name two actions; each row reads back its own
    doc = json.loads(json.dumps(CUSTOM_TWO_ACTION_DOC))
    doc["actions"] = [1, True]
    doc["impulse_costs"][0]["action_factors"] = {"True": 2.0}
    labelled = ic.discretize(*ic.problem_from_config(doc))
    pol = ic.StationaryPolicy(np.arange(labelled.n_states) % 2, 2)
    back = ic.policy_from_table(labelled, ic.policy_to_table(labelled, pol))
    assert back == pol and hash(back) == hash(pol)


def test_policy_table_roundtrip_with_inf_rows(fluid):
    # impulse below 2.0, never above: INF rows must serialize and parse
    _, _, mdp = fluid
    inf_idx = mdp.theta_points.size - 1
    flat = np.asarray(
        [(10 if x <= 2.0 else inf_idx) * mdp.n_labels for x in mdp.states],
        dtype=np.intp)
    pol = ic.StationaryPolicy(flat, mdp.n_labels)
    text = ic.policy_to_table(mdp, pol)
    assert " INF " in text
    assert ic.policy_from_table(mdp, text) == pol
    # float() reads every spelling of infinity
    for spelling in ("inf", "Infinity", "+inf", "INFINITY", "+Inf"):
        assert ic.policy_from_table(
            mdp, text.replace(" INF ", f" {spelling} ")) == pol


def test_policy_table_parse_errors(fluid):
    _, _, mdp = fluid
    with pytest.raises(ValueError, match="missing a row"):
        ic.policy_from_table(mdp, "0.0 INF\n")
    with pytest.raises(ValueError, match="not a grid point"):
        ic.policy_from_table(mdp, "7.77 INF\n")
    with pytest.raises(ValueError, match="unknown action"):
        ic.policy_from_table(mdp, "0.0 INF nope\n")


@pytest.mark.parametrize("row, needle", [
    ("nan INF", "not a grid point"),
    ("0.0 nan", "not on the grid"),
    ("0.0 -inf", "not on the grid"),
    ("inf INF", "not a grid point"),
], ids=["nan_state", "nan_theta", "neg_inf_theta", "inf_state"])
def test_policy_table_rejects_nan_rows(fluid, row, needle):
    _, _, mdp = fluid
    rows = [row] + [f"{float(x)!r} INF" for x in mdp.states[1:]]
    with pytest.raises(ValueError, match=needle):
        ic.policy_from_table(mdp, "\n".join(rows) + "\n")


def test_policy_table_rejects_duplicate_rows(fluid):
    _, _, mdp = fluid
    text = ic.policy_to_table(mdp, threshold_policy(mdp, 1.3))
    with pytest.raises(ValueError, match="line 3: second row for grid state 0.0"):
        ic.policy_from_table(mdp, text.replace("\n", "\n0.0 INF\n", 1))
