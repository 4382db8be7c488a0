"""The primal occupation-measure LP as an independent oracle for the dual route.

The constrained discrete MDP is exactly a linear program over occupation
measures mu(x, a) >= 0 (Altman, *Constrained Markov Decision Processes*,
1999, ch. 3):

    min  <mu, c_0>
    s.t. sum_a mu(y, a) - sum_{x,a} survival(a) P(y | x, a) mu(x, a) = 1[y = x0],
         <mu, c_j> <= d_j,   j = 1..J.

Its optimum is the constrained optimum that ``solve_constrained`` reaches by
Lagrangian duality, and its bound rows' duals are the optimal multipliers.
The LP is built here from the tables ``discretize`` writes (the balance rows
from their CSR, ``conftest.csr_kernel``), with HiGHS; the package itself
never loads ``scipy.optimize``.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from hypothesis.internal.conjecture import providers
import scipy.optimize
import scipy.sparse as sparse

import impulsecontrol as ic

from conftest import J2_DOC, csr_kernel, custom_two_action_off_grid_doc, fluid_doc


def primal_lp(mdp, keep=None, objective=0):
    """HiGHS on the occupation-measure LP of ``mdp``.

    ``keep`` lists the 0-based bound rows to impose (all when None), and
    ``objective`` is the index of the cost to minimize.
    """
    n, n_actions = mdp.n_states, mdp.n_actions
    keep = list(range(mdp.n_constraints) if keep is None else keep)
    outflow = sparse.kron(sparse.eye(n), np.ones((1, n_actions)))
    inflow = sparse.diags(np.tile(mdp.survival, n)) @ csr_kernel(mdp)
    start = np.zeros(n)
    start[mdp.x0_index] = 1.0
    costs = mdp.costs.reshape(mdp.n_costs, -1)
    bound_rows = {}
    if keep:
        bound_rows = dict(A_ub=costs[[1 + j for j in keep]],
                          b_ub=np.asarray(mdp.bounds, dtype=float)[keep])
    return scipy.optimize.linprog(
        costs[objective], A_eq=(outflow - inflow.T).tocsr(), b_eq=start,
        bounds=(0, None), method="highs", **bound_rows)


def _mdp(doc):
    return ic.discretize(*ic.problem_from_config(doc))


def _j2(bounds, n):
    doc = json.loads(json.dumps(J2_DOC))
    doc["bounds"] = bounds
    doc["grid"].update(state_n=n, theta_n=n)
    return doc


@pytest.mark.parametrize("doc", [
    pytest.param(J2_DOC, id="j2-doc"),
    pytest.param(fluid_doc(0.5, 60), id="fluid-60"),
    pytest.param(custom_two_action_off_grid_doc(), id="off-grid-29"),
    pytest.param(_j2([0.3, 2.5], 100), id="j2-doc-0.3-2.5"),
])
def test_primal_lp_matches_the_dual_route(doc):
    mdp = _mdp(doc)
    res = ic.solve_constrained(mdp)
    assert res.certificates.ok
    lp = primal_lp(mdp)
    assert lp.status == 0, lp.message
    for value in (res.costs.v[0], res.h_star):
        assert abs(lp.fun - value) <= 1e-12 * abs(lp.fun)
    # HiGHS reports d(objective)/d(b_ub) <= 0 for the bound rows
    g_lp = -np.asarray(lp.ineqlin.marginals)
    assert np.all(np.abs(g_lp - res.g_star) <= 1e-9 * (1.0 + res.g_star))


@pytest.mark.parametrize("bounds", [[1.0, 1.0], [0.8, 1.2]])
def test_infeasible_bounds_are_infeasible_for_the_primal_lp(bounds):
    mdp = _mdp(_j2(bounds, 40))
    assert primal_lp(mdp).status == 2
    with pytest.raises(ic.DualBracketError, match="increasing") as info:
        ic.solve_constrained(mdp)
    named = [int(j) - 1 for j in re.findall(r"bound (\d+) \(", str(info.value))]
    # only bound 2's multiplier reaches the cap, and bound 2 alone is infeasible
    assert named == [1]
    assert primal_lp(mdp, keep=named).status == 2
    # the least V_2 any cut reached is the LP minimum of V_2 alone
    least = float(re.search(r"least V_2 of any cut ([0-9.e+-]+)\)",
                            str(info.value)).group(1))
    v2_min = primal_lp(mdp, keep=[], objective=2)
    assert v2_min.status == 0 and v2_min.fun > bounds[1]
    assert least == pytest.approx(v2_min.fun, rel=1e-5)


# relative margin on the bounds: the LP feasible at d (1 - MARGIN) is
# strictly feasible, and one infeasible at d (1 + MARGIN) is infeasible
# with margin; a draw between the two is near the feasibility boundary
MARGIN = 0.05


def _rate(draw, top, least):
    """A cost-rate table of the config vocabulary, at least ``least``."""
    kind = draw(st.sampled_from(["constant", "polynomial", "piecewise_constant"]))
    if kind == "constant":
        return {"type": kind, "value": draw(st.floats(least, 2.0))}
    if kind == "polynomial":
        return {"type": kind, "coeffs": [draw(st.floats(least, 1.0)),
                                         draw(st.floats(0.0, 1.0))]}
    return {"type": kind, "breakpoints": [draw(st.floats(0.1 * top, 0.9 * top))],
            "values": [draw(st.floats(least, 2.0)), draw(st.floats(least, 2.0))]}


@st.composite
def _drawn_problems(draw):
    """(config document, bound scales): J in {1, 2}, 20-40 states, a drift
    or decay flow, a constant or scale reset.  The bounds are set from the
    scales after discretization (see the test)."""
    J = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(20, 40))
    top = draw(st.floats(1.0, 5.0))
    actions = draw(st.sampled_from([["a"], ["a", "b"]]))
    if draw(st.booleans()):
        flow = {"type": "drift", "rate": draw(st.floats(0.25, 2.0))}
    else:
        flow = {"type": "exponential_decay", "rate": draw(st.floats(0.1, 1.0))}
    if draw(st.booleans()):
        reset = {"type": "constant", "value": draw(st.floats(0.0, top))}
    else:
        reset = {"type": "scale", "factor": draw(st.floats(0.0, 0.9))}
    lump = _rate(draw, top, 0.2)  # a positive impulse cost: delta_hat > 0
    if len(actions) == 2:
        lump["action_factors"] = {"b": draw(st.floats(0.5, 2.0))}
    doc = {
        "model": "custom", "alpha": draw(st.floats(0.5, 2.0)),
        "x0": draw(st.sampled_from([0.0, 0.5 * top])),
        "flow": flow, "reset": reset, "actions": actions,
        "bounds": [1.0] * J,
        "gradual_costs": [_rate(draw, top, 0.0)]
        + [_rate(draw, top, 0.1) for _ in range(J)],
        "impulse_costs": [lump] + [{"type": "constant",
                                    "value": draw(st.floats(0.0, 1.0))}
                                   for _ in range(J)],
        "grid": {"state_min": 0.0, "state_max": top, "state_n": n,
                 "theta_max": top, "theta_n": n, "quadrature_step": 0.01},
    }
    return doc, draw(st.lists(st.floats(0.5, 3.0), min_size=J, max_size=J))


@pytest.mark.filterwarnings("ignore:.*clamped to the boundary:RuntimeWarning")
@settings(max_examples=50, deadline=2000, derandomize=True)
@given(drawn=_drawn_problems())
# bound 2 is at its least V_2, and no policy meets both bounds; the box
# grows in both coordinates and bound 1's, which half its least V_1 would
# meet, passes the cap first, so the error names both bounds
@example(drawn=({
    "model": "custom", "alpha": 1.0, "x0": 1.5,
    "flow": {"type": "exponential_decay", "rate": 1.0},
    "reset": {"type": "scale", "factor": 0.0}, "actions": ["a"],
    "bounds": [1.0, 1.0],
    "gradual_costs": [{"type": "constant", "value": 0.0},
                      {"type": "polynomial", "coeffs": [0.5, 1.0]},
                      {"type": "constant", "value": 1.0}],
    "impulse_costs": [{"type": "constant", "value": 1.0},
                      {"type": "constant", "value": 0.0},
                      {"type": "constant", "value": 1.0}],
    "grid": {"state_min": 0.0, "state_max": 3.0, "state_n": 20,
             "theta_max": 3.0, "theta_n": 20, "quadrature_step": 0.01}},
    [2.0, 1.0]))
# V_1 is 0.8 for every policy, and HiGHS calls the LP kept to bound 2 (half
# its least V_2) neither feasible nor infeasible (status 4)
@example(drawn=({
    "model": "custom", "alpha": 1.25, "x0": 1.75,
    "flow": {"type": "exponential_decay", "rate": 0.25},
    "reset": {"type": "scale", "factor": 0.671875}, "actions": ["a", "b"],
    "bounds": [1.0, 1.0],
    "gradual_costs": [{"type": "constant", "value": 1.0},
                      {"type": "constant", "value": 1.0},
                      {"type": "polynomial", "coeffs": [1.0, 0.046875]}],
    "impulse_costs": [{"type": "constant", "value": 1.0,
                       "action_factors": {"b": 1.0}},
                      {"type": "constant", "value": 0.0},
                      {"type": "constant", "value": 0.003438094816296645}],
    "grid": {"state_min": 0.0, "state_max": 3.5, "state_n": 29,
             "theta_max": 3.5, "theta_n": 29, "quadrature_step": 0.01}},
    [1.0, 0.5]))
# the search stops on its gap with the cut at g* outside the master; the
# master over every cut, that one too, meets the LP's optimum
@example(drawn=({
    "model": "custom", "alpha": 0.5, "x0": 0.0,
    "flow": {"type": "drift", "rate": 0.96875},
    "reset": {"type": "constant", "value": 1.109375}, "actions": ["a"],
    "bounds": [1.0],
    "gradual_costs": [{"type": "polynomial", "coeffs": [0.0, 1.0]},
                      {"type": "constant", "value": 0.5}],
    "impulse_costs": [{"type": "constant", "value": 0.5},
                      {"type": "constant", "value": 1.0}],
    "grid": {"state_min": 0.0, "state_max": 3.0, "state_n": 36,
             "theta_max": 3.0, "theta_n": 36, "quadrature_step": 0.01}},
    [1.5]))
def test_the_dual_route_meets_the_primal_lp_on_drawn_problems(drawn):
    doc, scales = drawn
    mdp = _mdp(doc)
    # bound j is a multiple of the least V_j any policy reaches, so that
    # both feasible and infeasible draws are common
    least = [primal_lp(mdp, keep=[], objective=1 + j).fun
             for j in range(mdp.n_constraints)]
    d = np.asarray(scales) * least
    mdp = dataclasses.replace(mdp, bounds=tuple(d.tolist()))

    def status(factor):
        return primal_lp(dataclasses.replace(
            mdp, bounds=tuple((factor * d).tolist()))).status

    if status(1.0 - MARGIN) == 0:
        lp = primal_lp(mdp)
        assert lp.status == 0, lp.message
        event("feasible")
        res = ic.solve_constrained(mdp)
        assert res.certificates.ok
        assert math.isclose(res.costs.v[0], lp.fun, rel_tol=1e-9, abs_tol=1e-15)
        return
    assume(status(1.0 + MARGIN) == 2)
    event("infeasible")
    with pytest.raises(ic.DualBracketError) as info:
        ic.solve_constrained(mdp)
    named = [int(j) - 1 for j in re.findall(r"bound (\d+) \(", str(info.value))]
    # the LP kept to the named bounds is infeasible too: for one bound j,
    # the least V_j exceeds d_j (HiGHS may call the LP kept to bound j
    # unknown, as on the second example), unless d_j is near it, where
    # bound j alone has no strictly feasible point; for all bounds, it is
    # the LP above
    if len(named) == 1:
        j = named[0]
        assume(abs(least[j] - d[j]) > MARGIN * least[j])
        assert least[j] > d[j]
    else:
        assert named == list(range(mdp.n_constraints))


def test_property_draws_ignore_the_project_literals():
    # conftest.py pins Hypothesis's hook for the literals of the loaded
    # project modules to an empty set, so a constant added to src/ does not
    # move the drawn problems above; without the pin the hook would offer
    # the dual layer's own tolerances
    assert ic.dual.MULTIPLIER_TOL in providers.constants_from_module(ic.dual)
    assert len(providers._get_local_constants()) == 0
    assert len(providers.HypothesisProvider(None)._local_constants) == 0
