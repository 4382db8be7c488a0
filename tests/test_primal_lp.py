"""The primal occupation-measure LP as an independent oracle for the dual route.

The constrained discrete MDP is exactly a linear program over occupation
measures mu(x, a) >= 0 (Altman, *Constrained Markov Decision Processes*,
1999, ch. 3):

    min  <mu, c_0>
    s.t. sum_a mu(y, a) - sum_{x,a} survival(a) P(y | x, a) mu(x, a) = 1[y = x0],
         <mu, c_j> <= d_j,   j = 1..J.

Its optimum is the constrained optimum that ``solve_constrained`` reaches by
Lagrangian duality, and its bound rows' duals are the optimal multipliers.
The LP is built here from the tables ``discretize`` writes, with HiGHS; the
package itself never loads ``scipy.optimize``.
"""

import json
import re

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sparse

import impulsecontrol as ic

from conftest import J2_DOC, custom_two_action_off_grid_doc, fluid_doc


def primal_lp(mdp, keep=None, objective=0):
    """HiGHS on the occupation-measure LP of ``mdp``.

    ``keep`` lists the 0-based bound rows to impose (all when None), and
    ``objective`` is the index of the cost to minimize.
    """
    n, n_actions = mdp.n_states, mdp.n_actions
    keep = list(range(mdp.n_constraints) if keep is None else keep)
    outflow = sparse.kron(sparse.eye(n), np.ones((1, n_actions)))
    inflow = sparse.diags(np.tile(mdp.survival, n)) @ mdp.kernel
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
