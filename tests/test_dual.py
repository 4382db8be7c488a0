import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.linalg import SuperLU

import impulsecontrol as ic
from impulsecontrol import cli, dual, fluidq, model
from impulsecontrol.dual import mix_weights

from conftest import (BANDS, J2_DOC, band_centre_doc, constant_theta_policy,
                      custom_j2_doc, custom_two_action_off_grid_doc, fluid_mdp,
                      with_sweep_chunks)


D_BENCH = 0.5


@pytest.fixture(scope="module")
def solved(small_mdp):
    return ic.solve_constrained(small_mdp)


def _h_closed_form(params, g):
    """Dual value from the threshold closed forms (test-side oracle)."""
    if g == 0.0:
        return 0.0
    xg = fluidq.x_g(params, g)
    W0 = (1.0 - math.exp(-xg)) / (xg - 1.0 + math.exp(-xg))
    return W0 - g * params.d


# ---------------------------------------------------------------------------
# dual_value


def test_dual_value_at_zero(small_mdp):
    pt = ic.dual_value(small_mdp, [0.0])
    assert pt.h == 0.0 and pt.W0 == 0.0
    # never-impulse slack: V1 - d = h/alpha^2 - d
    assert pt.slacks[0] == pytest.approx(1.0 - D_BENCH, abs=1e-9)


def test_dual_value_matches_closed_form(small_mdp, bench_params):
    # theta-grid quantization error grows with the multiplier (curvature ~ g)
    for g in (0.5, 1.0, 1.8480894645490473, 3.0):
        pt = ic.dual_value(small_mdp, [g])
        assert pt.h == pytest.approx(_h_closed_form(bench_params, g),
                                     abs=2e-4 * (1.0 + g))


def test_dual_value_identity(small_mdp):
    for g in (0.3, 1.7):
        pt = ic.dual_value(small_mdp, [g])
        assert abs(pt.h - (pt.W0 - g * D_BENCH)) <= 1e-12


def test_dual_midpoint_concavity(small_mdp):
    rng = np.random.default_rng(5)
    for _ in range(8):
        g1, g2 = np.sort(rng.uniform(0.0, 4.0, 2))
        h1 = ic.dual_value(small_mdp, [g1]).h
        h2 = ic.dual_value(small_mdp, [g2]).h
        hm = ic.dual_value(small_mdp, [0.5 * (g1 + g2)]).h
        assert hm >= 0.5 * (h1 + h2) - 2e-6


# ---------------------------------------------------------------------------
# maximize_dual


def test_maximizer_is_zero_when_bound_is_loose():
    for d in (1.0, 2.0):
        _, _, mdp = fluid_mdp(d=d, state_n=80, theta_n=80)
        g_star, trace, _ = ic.maximize_dual(mdp)
        assert g_star[0] <= 1e-4


def test_maximizer_matches_analytic(small_mdp, bench_analytic):
    # 3% on this coarse unit grid; the 1% contract on production grids is
    # covered by the acceptance benchmark
    g_star, trace, _ = ic.maximize_dual(small_mdp)
    assert abs(g_star[0] - bench_analytic.g_star) <= 3e-2 * bench_analytic.g_star
    # dual values never exceed the maximum along the trace
    h_star = max(pt.h for pt in trace)
    assert all(pt.h <= h_star for pt in trace)


# constant unit rate: every strategy pays 1/alpha on the constraint, so
# d = 0.5 is infeasible and the dual grows without bound
INFEASIBLE_J1_DOC = {
    "model": "custom", "alpha": 1.0, "x0": 0.0,
    "flow": {"type": "drift", "rate": 1.0},
    "reset": {"type": "constant", "value": 0.0},
    "actions": ["a"], "bounds": [0.5],
    "gradual_costs": [{"type": "constant", "value": 0.0},
                      {"type": "constant", "value": 1.0}],
    "impulse_costs": [{"type": "constant", "value": 1.0},
                      {"type": "constant", "value": 0.0}],
    "grid": {"state_min": 0.0, "state_max": 4.0, "state_n": 40,
             "theta_max": 4.0, "theta_n": 40, "quadrature_step": 0.01},
}


def test_unbounded_dual_reports_bracket_failure():
    prob, grid = ic.problem_from_config(INFEASIBLE_J1_DOC)
    mdp = ic.discretize(prob, grid)
    with pytest.raises(ic.DualBracketError, match="increasing"):
        ic.maximize_dual(mdp)


def test_nonconverged_evaluation_stops_the_search(small_mdp):
    # policy iteration at g = 1 needs at least two steps from the g = 0
    # policy, so a one-step cap leaves that evaluation unconverged; it must
    # end the search, not feed it
    cfg = ic.BellmanConfig(max_iterations=1)
    t0 = time.perf_counter()
    with pytest.raises(ic.BellmanNotConvergedError,
                       match=r"multiplier \[1\.0\].*max_iterations=1\b"):
        ic.maximize_dual(small_mdp, cfg)
    assert time.perf_counter() - t0 <= 5.0


# ---------------------------------------------------------------------------
# mixture construction


def test_mix_weights_active_bound_is_tight():
    # cut model min(1 - 0.3 g, 0.3 g) peaks at g = 5/3 with value 1/2
    V = np.asarray([[1.0, 0.2], [0.0, 0.8]])
    w, g, ub, _ = mix_weights(V, np.asarray([0.5]), np.asarray([10.0]))
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)
    assert w @ V[:, 1] == pytest.approx(0.5, abs=1e-12)
    assert g[0] == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert ub == pytest.approx(0.5, abs=1e-12)


def test_mix_weights_loose_bound_picks_cheapest():
    V = np.asarray([[3.0, 0.2], [1.0, 0.8]])
    w, g, ub, _ = mix_weights(V, np.asarray([1.0]), np.asarray([1.0]))
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)
    assert g[0] == 0.0
    assert ub == pytest.approx(1.0, abs=1e-12)


def test_mix_weights_infeasible_bound_sits_on_the_box():
    # no mixture meets d = 0.5, so the elastic variable mu pays for the excess
    # and the multiplier sits on the box
    V = np.asarray([[1.0, 0.8], [0.0, 0.9]])
    box = np.asarray([1.0])
    w, g, ub, _ = mix_weights(V, np.asarray([0.5]), box)
    assert g[0] == pytest.approx(box[0], abs=1e-12)
    mu = (ub - w @ V[:, 0]) / box[0]
    assert mu > 0.0
    assert w @ V[:, 1] - 0.5 == pytest.approx(mu, abs=1e-12)


def _cut_model_max(V, d, box):
    """max over g in [0, box] of min_k V0_k + g.(V_k - d), as its own LP.

    Test-side reference: variables (t, g), max t s.t.
    t + g.(d - V_k) <= V0_k.  Returns None when HiGHS fails.
    """
    c = np.zeros(d.size + 1)
    c[0] = -1.0
    res = scipy.optimize.linprog(
        c, A_ub=np.hstack([np.ones((len(V), 1)), d - V[:, 1:]]), b_ub=V[:, 0],
        bounds=[(None, None)] + [(0.0, b) for b in box], method="highs-ds")
    return float(res.x[0]) if res.success else None


def _master_tol(V, d, box, ref, g):
    """How far an optimal UB of the master at multiplier g may be from the
    cut model's maximum ``ref`` as HiGHS finds it."""
    # HiGHS stops within its default 1e-7 primal and dual feasibility
    # tolerances, so either LP may settle on a cut cheaper by less than that.
    # HiGHS also drops matrix entries below 1e-9 (its small_matrix_value), so
    # its model misses box_j times any such V_kj - d_j.  And the model at g
    # is known only up to the round-off of g.(V - d), the elastic cost of w
    # up to that of box.(w V - d): far below 1e-7 for a box of 8, not for
    # one of 2^60.
    gap = np.abs(V[:, 1:] - d)
    return (1e-7 * (1.0 + abs(ref)) + 1e-13 * float(g @ gap.max(axis=0))
            + float(box @ np.where(gap <= 1e-9, gap, 0.0).max(axis=0)))


def _check_master(V, d, box, ref, basis=None):
    """(w, g, UB) of mix_weights, started from ``basis`` when given, against
    the cut model's maximum ``ref``."""
    J = d.size
    w, g, ub, _ = mix_weights(V, d, box, basis)
    tol = _master_tol(V, d, box, ref, g)
    assert ub == pytest.approx(ref, abs=tol)
    # g maximizes the cut model, inside the box
    assert np.all(g >= 0.0) and np.all(g <= box)
    assert float(np.min(V[:, 0] + (V[:, 1:] - d) @ g)) == pytest.approx(ref, abs=tol)
    # w is a vertex mixture whose elastic cost is the same optimum
    assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(w) <= J + 1
    excess = np.maximum(w @ V[:, 1:] - d, 0.0)
    w_tol = tol + 1e-13 * float(box @ (1.0 + np.abs(V[:, 1:]).max(axis=0)))
    assert float(w @ V[:, 0] + box @ excess) == pytest.approx(ref, abs=w_tol)
    return w, g, ub


# a coarse lattice makes ties between cuts and cuts on the bound common
_LATTICE = st.integers(0, 8).map(lambda i: i / 4.0)


def _draw_master(data):
    """(V, d, box) of a master: 1 to 3 bounds and up to 8 cuts."""
    J = data.draw(st.sampled_from([1, 2, 3]))
    n_distinct = data.draw(st.integers(1, 6))
    cuts = data.draw(hnp.arrays(np.float64, (n_distinct, 1 + J), elements=st.one_of(
        _LATTICE, st.floats(0.0, 2.0))))
    # repeated rows are duplicate cuts
    V = cuts[data.draw(st.lists(st.integers(0, n_distinct - 1), min_size=1,
                                max_size=8))]
    d = data.draw(hnp.arrays(np.float64, J, elements=st.one_of(
        st.integers(1, 6).map(lambda i: i / 4.0), st.floats(0.1, 1.5))))
    box = data.draw(hnp.arrays(np.float64, J, elements=st.one_of(
        st.floats(0.5, 8.0), st.integers(0, 60).map(lambda e: 2.0 ** e))))
    return V, d, box


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mix_weights_agrees_with_cut_model(data):
    V, d, box = _draw_master(data)
    ref = _cut_model_max(V, d, box)
    assume(ref is not None)
    _check_master(V, d, box, ref)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_warm_master_agrees_with_a_cold_one(data):
    # the search's next master has one cut more, or one box coordinate
    # doubled; either way the last optimal basis stays primal feasible
    V, d, box = _draw_master(data)
    basis = mix_weights(V, d, box)[3]
    if data.draw(st.booleans(), label="add a cut"):
        cut = data.draw(hnp.arrays(np.float64, V.shape[1], elements=st.one_of(
            _LATTICE, st.floats(0.0, 2.0))))
        basis = basis + (basis >= len(V))  # mu and s move up one
        V = np.vstack([V, cut])
    else:
        box = box.copy()
        box[data.draw(st.integers(0, d.size - 1), label="doubled")] *= 2.0
    ref = _cut_model_max(V, d, box)
    assume(ref is not None)
    w, g, ub = _check_master(V, d, box, ref, basis)
    cold = mix_weights(V, d, box)[2]
    assert ub == pytest.approx(cold, abs=_master_tol(V, d, box, ref, g))


@pytest.mark.parametrize("J", [1, 2, 3])
def test_mix_weights_on_identical_cuts(J):
    # every cut the same, meeting every bound but the first
    row = np.concatenate([[0.75], np.full(J, 0.5)])
    d = np.full(J, 1.0)
    d[0] = 0.25
    V = np.tile(row, (5, 1))
    box = np.full(J, 4.0)
    w, g, ub = _check_master(V, d, box, 0.75 + 4.0 * 0.25)
    assert np.count_nonzero(w) == 1 and w.sum() == 1.0
    assert g[0] == 4.0 and np.all(g[1:] == 0.0)


@pytest.mark.parametrize("V, d", [
    ([[3e-323, 0.0, 0.0], [0.0, 0.0, 1.8046875], [0.0, 0.0, 1.8046875]],
     [0.25, 0.25]),
    ([[0.0, 1.0, 2e-260], [0.0, 1.0, 2e-260], [0.25, 0.0, 1.25]], [0.25, 1.0]),
], ids=["subnormal-cost", "tiny-bound-cost"])
def test_mix_weights_on_duplicate_cuts_with_tiny_entries(V, d):
    # the reduced cost of a duplicate cut comes out as round-off far below
    # 1e-12 of its terms (subnormal, or after a dropped entry of B^-1),
    # which must not swap the twins forever
    V, d, box = np.asarray(V), np.asarray(d), np.asarray([1.0, 1.0])
    _check_master(V, d, box, _cut_model_max(V, d, box))


def test_mix_weights_ignores_duals_that_cancel_to_round_off():
    # cuts 0 and 1 tie on the main cost, and any mixture of them meeting
    # both bounds is optimal with g = 0.  y cancels to round-off there:
    # with y from a solve of B^T y = c_B and a reduced-cost tolerance on
    # |y| alone, the simplex cycled.
    V = np.asarray([[1.5, 0.1, 1.9], [1.5, 1.4, 0.4], [1.8, 0.8, 1.6]])
    d, box = np.asarray([0.8, 1.1]), np.asarray([1.0, 1.0])
    w, g, ub = _check_master(V, d, box, 1.5)
    assert np.all(g <= 1e-15) and ub == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("V, d, box, g_expected", [
    # one cut over every bound: every elastic mu_j is basic, so g = box
    ([[1.5, 2.0, 1.5, 1.75]], [0.75, 1.0, 1.0], [1.0, 1.0, 2.0 ** 59],
     [1.0, 1.0, 2.0 ** 59]),
    # mu_3 basic at a 1.4e17 box; g_1 = 1/4 comes from the small costs only
    ([[0.75, 1.5, 0.25, 0.75], [1.5, 0.75, 0.5, 1.25], [1.0, 0.5, 0.75, 0.75]],
     [1.25, 0.5, 0.5], [2.0 ** 37, 2.0 ** 42, 2.0 ** 57], [0.25, 0.0, 2.0 ** 57]),
    # the basic cuts tie on V_2, so B^-1 has an exact zero that round-off
    # turns into 1e-17: times the 2^23 box, noise in y_3
    ([[0.5, 0.5, 1.5, 1.75], [0.5, 2.0, 1.5, 0.0], [1.0, 1.75, 1.5, 1.25],
      [0.75, 1.0, 2.0, 1.75], [1.5, 1.0, 2.0, 1.5]],
     [1.25, 1.25, 1.25], [8.0, 2.0 ** 23, 2.0 ** 30], [0.0, 2.0 ** 23, 0.0]),
], ids=["one-cut", "mu-basic", "tied-costs"])
def test_mix_weights_keeps_a_huge_box_out_of_the_other_multipliers(
        V, d, box, g_expected):
    # Gaussian elimination on B^T y = c_B mixes the huge box into the small
    # multipliers, by far more than their size, and sends the simplex round
    # a cycle or along a spurious ray.
    V, d, box = np.asarray(V), np.asarray(d), np.asarray(box)
    w, g, ub = _check_master(V, d, box, _cut_model_max(V, d, box))
    assert np.array_equal(g, g_expected)


def test_mix_weights_clips_the_multiplier_to_the_box():
    # g_3 sits on the box: -y_3 overshoots 1 by round-off
    V = np.asarray([[1.6, 0.6, 1.6, 0.6], [0.9, 0.3, 1.2, 1.5]])
    d, box = np.asarray([1.25, 1.5, 0.5]), np.asarray([1.0, 1.0, 1.0])
    w, g, ub = _check_master(V, d, box, _cut_model_max(V, d, box))
    assert g[2] == 1.0


def test_mix_weights_with_a_cut_exactly_on_the_bound():
    # cut 1 sits on d = 0.5: the model min(1 - 0.5 g, 0.5, 0.25 + 0.5 g)
    # is flat at 0.5 for g in [1/2, 1], and the cheapest feasible mixture
    # is cut 1 alone
    V = np.asarray([[1.0, 0.0], [0.5, 0.5], [0.25, 1.0]])
    d, box = np.asarray([0.5]), np.asarray([8.0])
    w, g, ub = _check_master(V, d, box, 0.5)
    assert ub == 0.5
    assert 0.5 <= g[0] <= 1.0
    assert float(w @ V[:, 1]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mix_weights_fails_on_non_finite_cut_costs(bad):
    V = np.asarray([[1.0, 0.2], [0.0, 0.8]])
    V[1, 1] = bad
    with pytest.raises(RuntimeError, match="cutting-plane master LP failed"):
        mix_weights(V, np.asarray([0.5]), np.asarray([1.0]))


def test_mix_weights_fails_at_its_pivot_cap(monkeypatch):
    monkeypatch.setattr(dual, "_MAX_PIVOTS", 0)
    with pytest.raises(RuntimeError,
                       match="cutting-plane master LP failed: .*0 pivots"):
        mix_weights(np.asarray([[1.0, 0.2], [0.0, 0.8]]), np.asarray([0.5]),
                    np.asarray([10.0]))


def test_mix_weights_is_the_only_lp_of_a_solve(monkeypatch, j2_mdp):
    real = dual.mix_weights
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dual, "mix_weights", counting)
    res = ic.solve_constrained(j2_mdp)
    assert len(calls) == len(res.trace) - 1 >= 1
    calls.clear()
    _, _, mdp = fluid_mdp(d=2.0, state_n=40, theta_n=40)
    res = ic.solve_constrained(mdp)
    assert len(res.trace) == 1 and not calls


@pytest.mark.parametrize("name, expected", [
    ("fluid-accept", 17), ("fluid-tight", 24), ("custom-j2", 15)],
    ids=["fluid-accept-17", "fluid-tight-24", "custom-j2-15"])
def test_band_centre_master_basis_inverses(monkeypatch, name, expected):
    # each master resumes from the last one's optimal basis; restarted
    # from the cut of least elastic cost they took 29, 36 and 25
    mdp = _band_mdp(band_centre_doc(name))
    real_inv, real_mix = np.linalg.inv, dual.mix_weights
    inverses = []

    def counting(*args):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "inv",
                      lambda a: inverses.append(1) or real_inv(a))
            return real_mix(*args)

    monkeypatch.setattr(dual, "mix_weights", counting)
    ic.solve_constrained(mdp)
    assert len(inverses) == expected


def test_master_lp_failure_after_doubling_is_a_bracket_error(monkeypatch):
    prob, grid = ic.problem_from_config(INFEASIBLE_J1_DOC)
    mdp = ic.discretize(prob, grid)
    real = dual.mix_weights
    calls = []

    def failing_from(n):
        def mix_weights(*args):
            calls.append(1)
            if len(calls) < n:
                return real(*args)
            raise RuntimeError("cutting-plane master LP failed: forced failure")
        return mix_weights

    # a failure in the first box is a plain LP failure
    monkeypatch.setattr(dual, "mix_weights", failing_from(1))
    with pytest.raises(RuntimeError, match="forced failure") as info:
        ic.maximize_dual(mdp)
    assert not isinstance(info.value, ic.DualBracketError)
    # after the box has doubled it means the dual kept increasing
    calls.clear()
    monkeypatch.setattr(dual, "mix_weights", failing_from(3))
    with pytest.raises(ic.DualBracketError,
                       match="forced failure.*increasing") as info:
        ic.maximize_dual(mdp)
    assert len(calls) == 3
    # the message names the bound whose box coordinate doubled; every
    # policy pays 1/alpha = 1 on it
    assert str(info.value).endswith(
        "point: bound 1 (d_1 = 0.5, least V_1 of any cut 1)")


def test_import_does_not_load_the_lp_solver():
    src = str(Path(ic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, impulsecontrol, impulsecontrol.cli; "
            "assert 'scipy.optimize' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_solve_does_not_load_the_lp_solver(tmp_path):
    root = Path(ic.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root), os.environ.get("PYTHONPATH", "")]))
    config = root.parent / "configs" / "fluid_benchmark.json"
    code = ("import sys; from impulsecontrol import cli; "
            f"assert cli.main(['solve', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'report.json')!r}]) == 0; "
            "assert 'scipy.optimize' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# one linear solve per policy across the dual search


def _band_mdp(doc):
    return ic.discretize(*ic.problem_from_config(doc))


class _FactorLedger:
    """Stands in for scipy's ``splu``: counts the factorizations, and wraps
    each factor so that the factors still alive can be counted."""

    def __init__(self, real):
        self.real = real
        self.made = 0
        self.alive = 0
        self.alive_at_new = []  # factors alive when each new one was made

    def __call__(self, A):
        self.alive_at_new.append(self.alive)
        self.made += 1
        return _TrackedFactor(self, self.real(A))


class _TrackedFactor:
    def __init__(self, ledger, lu):
        self.ledger, self.lu = ledger, lu
        ledger.alive += 1

    def solve(self, rhs):
        return self.lu.solve(rhs)

    def __del__(self):
        self.ledger.alive -= 1


@pytest.mark.parametrize("doc, expected, factored", [
    *(pytest.param(band_centre_doc(name), n, False, id=f"{name}-{n}")
      for name, n in (("fluid-tight", 17), ("fluid-accept", 12), ("custom-j2", 10))),
    pytest.param(custom_two_action_off_grid_doc(), 5, True,
                 id="custom-two-action-off-grid-5")])
def test_band_centre_factorizations(monkeypatch, doc, expected, factored):
    # every evaluation after the first takes its first step from the
    # previous cut's per-cost values, so the search makes sum of steps -
    # (evaluations - 1) linear solves.  The band centres reset to a
    # constant, so the search runs on x0's states and makes 17, 12 and 10
    # (30, 21 and 18 when each step solves), and the lifts of its cuts to
    # the full grid solve nothing.  Those solves are on the landing
    # states, so the grid is never factored.  The cuts read the search's
    # values, so off-grid landings add no solve there; only the
    # certificates' own evaluation of the mixture solves, once on the
    # off-grid doc (7 when each cut evaluated its policy again), whose
    # scale reset keeps the full search and factors once per solve
    mdp = _band_mdp(doc)
    ledger = _FactorLedger(scipy.sparse.linalg.splu)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", ledger)
    solves = []
    real_solve = ic.DiscreteMDP.solve_policy
    monkeypatch.setattr(ic.DiscreteMDP, "solve_policy",
                        lambda *args: solves.append(1) or real_solve(*args))
    made_by_search = []
    real_mixture = dual.eval_mixture
    monkeypatch.setattr(dual, "eval_mixture", lambda mdp, m: (
        made_by_search.append(len(solves)) or real_mixture(mdp, m)))
    result = ic.solve_constrained(mdp)
    steps = sum(pt.solution.iterations for pt in result.trace)
    assert made_by_search == [steps - (len(result.trace) - 1)]
    assert len(solves) == expected
    assert ledger.made == (expected if factored else 0)
    # no factor outlives its use: none alive when another is made, and none
    # once the solve has returned
    assert ledger.alive_at_new == [0] * ledger.made
    assert ledger.alive == 0


def _solve_with_bare_starts(monkeypatch, mdp):
    """solve_constrained with every warm start given as the bare policy."""
    real = dual.dual_value

    def bare(mdp, g, cfg=ic.BellmanConfig(), start=None):
        if isinstance(start, ic.BellmanSolution):
            start = start.policy
        return real(mdp, g, cfg, start)

    with monkeypatch.context() as m:
        m.setattr(dual, "dual_value", bare)
        return ic.solve_constrained(mdp)


@pytest.mark.parametrize("doc", [
    *(make(v) for make, band in (BANDS["fluid-accept"], BANDS["fluid-tight"])
      for v in band),
    J2_DOC, custom_two_action_off_grid_doc()],
    ids=["accept-lo", "accept-centre", "accept-hi", "tight-lo", "tight-centre",
         "tight-hi", "j2", "custom-two-action-off-grid"])
def test_factor_reuse_is_bitwise_equal_to_refactorizing(monkeypatch, doc):
    mdp = _band_mdp(doc)
    reused = ic.solve_constrained(mdp)
    fresh = _solve_with_bare_starts(monkeypatch, mdp)
    assert len(reused.trace) == len(fresh.trace) >= 2
    for a, b in zip(reused.trace, fresh.trace):
        assert np.array_equal(a.g, b.g) and a.h == b.h and a.W0 == b.W0
        assert np.array_equal(a.solution.W, b.solution.W)
        assert a.policy == b.policy
        assert a.solution.trace == b.solution.trace
        assert np.array_equal(a.costs.v, b.costs.v)
    assert np.array_equal(reused.g_star, fresh.g_star)
    assert reused.mixture == fresh.mixture
    assert np.array_equal(reused.costs.v, fresh.costs.v)


# ---------------------------------------------------------------------------
# under a constant reset the search runs on x0's states


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {name: json.loads((CONFIG_DIR / f"{name}.json").read_text())
           for name in ("fluid_benchmark", "custom_j2")}
# every band point of the goldens, J2_DOC and the shipped configs
CONSTANT_RESET_DOCS = {
    **{f"{name}-{v}": make(v) for name, (make, band) in BANDS.items()
       for v in band},
    "fluid-accept-0.452": BANDS["fluid-accept"][0](0.452),
    "j2": J2_DOC, **SHIPPED}


def _full_grid_reference(mdp):
    """(g*, trace, weights, mixture, solution) of the dual search on the
    full grid, assembled as solve_constrained did before the search moved
    onto x0's states: the mixture's policies and the solution are the
    trace's own."""
    g_star, trace, w = dual.maximize_dual(mdp)
    support = np.nonzero(w)[0]
    mixture = ic.MixedPolicy(
        weights=tuple(float(w[i]) for i in support),
        policies=tuple(trace[i].policy for i in support))
    return g_star, trace, w, mixture, trace[-1].solution


@pytest.mark.parametrize("name", list(CONSTANT_RESET_DOCS))
def test_search_on_x0_states_matches_the_full_grid_search(name):
    mdp = _band_mdp(CONSTANT_RESET_DOCS[name])
    assert mdp.landing_states is not None
    g_star, trace, w, mixture, solution = _full_grid_reference(mdp)
    result = ic.solve_constrained(mdp)
    assert len(result.trace) == len(trace)
    for got, want in zip(result.trace, trace):
        assert got.solution.W.size < mdp.n_states
        assert np.array_equal(got.g, want.g)
        assert got.h == want.h and got.W0 == want.W0
        assert np.array_equal(got.slacks, want.slacks)
        assert np.array_equal(got.costs.v, want.costs.v)
    assert np.array_equal(result.g_star, g_star)
    assert result.h_star == trace[-1].h and result.W0 == trace[-1].W0
    assert result.mixture.weights == mixture.weights
    assert result.mixture.weights == tuple(float(x) for x in w[w > 0.0])
    assert result.mixture.policies == mixture.policies
    assert np.array_equal(result.costs.v, ic.eval_mixture(mdp, mixture).v)
    assert result.solution is result.trace[-1].solution
    R = dual._search_states(mdp)
    assert np.array_equal(result.solution.W, solution.W[R])
    assert np.array_equal(result.solution.policy.flat, solution.policy.flat[R])


@pytest.mark.parametrize("name", list(CONSTANT_RESET_DOCS))
def test_full_grid_policy_iteration_at_g_star_is_one_step(name):
    # off R a constant reset's optimal values are one backup of R's, so
    # the search's last policy lifted to the grid is already the full
    # grid's policy iteration answer at g*: it stops after one step
    mdp = _band_mdp(CONSTANT_RESET_DOCS[name])
    result = ic.solve_constrained(mdp)
    start = dual._lift(mdp, result.trace[-1])
    full = ic.policy_iteration(mdp, result.g_star, ic.BellmanConfig(), start)
    assert full.converged and full.iterations == 1
    assert full.policy == start


def test_state_dependent_kernel_keeps_the_full_search():
    mdp = _band_mdp(custom_two_action_off_grid_doc())
    assert mdp.landing_states is None and dual.search_mdp(mdp) is mdp
    result = ic.solve_constrained(mdp)
    assert len(result.trace) >= 2
    assert all(pt.policy.n_states == pt.solution.W.size == mdp.n_states
               for pt in result.trace)
    assert result.solution is result.trace[-1].solution


@pytest.mark.parametrize("name, reset", [
    ("fluid_benchmark", None), ("custom_j2", None), ("custom_j2", 0.37),
    ("custom_j2", 4.0)])
def test_search_mdp_holds_the_rows_x0_reaches(name, reset):
    doc = json.loads(json.dumps(SHIPPED[name]))
    if reset is not None:
        doc["reset"]["value"] = reset  # 0.37 splits, 4.0 is the top state
    mdp = _band_mdp(doc)
    search = dual.search_mdp(mdp)
    R = np.union1d(mdp.landing_states, mdp.x0_index)
    assert R.size == search.n_states <= 5
    assert np.array_equal(search.states, mdp.states[R])
    assert R[search.x0_index] == mdp.x0_index
    assert np.array_equal(search.costs, mdp.costs[:, R])
    assert np.array_equal(R[search.landing_states], mdp.landing_states)
    assert np.array_equal(R[search.next_states], mdp.next_states[:R.size])
    assert np.array_equal(search.next_weights, mdp.next_weights[:R.size])
    assert np.array_equal(search.survival, mdp.survival)
    assert (search.theta_points is mdp.theta_points
            and search.action_labels == mdp.action_labels
            and search.bounds == mdp.bounds and search.alpha == mdp.alpha)


def _reachable(root):
    """Every object reachable from ``root`` through references, stopping at
    types, modules and functions (which reach the whole interpreter)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_no_factor_is_reachable_from_the_dual_result(j2_mdp):
    # a solution carries its policy's values, not the factor that made them
    def factors(root):
        return [o for o in _reachable(root) if isinstance(o, SuperLU)]

    assert factors(ic.dual_value(j2_mdp, [1.0, 0.0])) == []
    result = ic.solve_constrained(j2_mdp)
    assert len(result.trace) >= 2
    assert factors(result) == []


def test_solved_mixture_hits_bound_exactly(solved, small_mdp, bench_analytic):
    v = solved.costs.v
    assert v[1] == pytest.approx(D_BENCH, abs=1e-9)
    assert abs(v[0] - bench_analytic.V0) <= 1e-2 * bench_analytic.V0
    assert 1 <= len(solved.mixture.weights) <= small_mdp.n_constraints + 1
    assert sum(solved.mixture.weights) == pytest.approx(1.0, abs=1e-12)
    # every mixture component is a near-threshold rule
    dtheta = float(small_mdp.theta_points[1] - small_mdp.theta_points[0])
    for pol in solved.mixture.policies:
        for i, x in enumerate(small_mdp.states):
            theta = float(small_mdp.theta_points[pol.flat[i] // small_mdp.n_labels])
            want = max(bench_analytic.x_star - float(x), 0.0)
            assert abs(theta - want) <= 3.0 * dtheta


def test_unconstrained_mixture_is_single_policy():
    _, _, mdp = fluid_mdp(d=2.0, state_n=80, theta_n=80)
    res = ic.solve_constrained(mdp)
    assert res.g_star[0] <= 1e-4
    assert res.mixture.weights == (1.0,)
    assert res.costs.v[0] <= 1e-6
    assert res.costs.v[1] == pytest.approx(1.0, rel=5e-3)


# ---------------------------------------------------------------------------
# certificates


def _certify(mdp, result):
    """The certificates of ``result`` at the default Bellman tolerance."""
    return dual._certify(result.g_star, result.h_star, result.costs,
                         result.trace, np.asarray(mdp.bounds, dtype=float),
                         ic.BellmanConfig())


def test_certificates_pass_on_benchmark(solved):
    certs = solved.certificates
    assert certs.feasible
    assert certs.lagrangian_ok
    assert certs.slackness_ok
    assert certs.weak_duality_ok
    assert certs.ok
    assert certs.duality_gap <= 1e-2 * (1.0 + abs(solved.h_star))


def test_perturbed_mixture_fails_slackness(solved, small_mdp):
    # swap the mixture for a clearly-off threshold rule; the active
    # constraint no longer binds and the slackness detector must fire
    off = constant_theta_policy(small_mdp, 20)
    costs = ic.eval_policy(small_mdp, off)
    broken = dataclasses.replace(
        solved, mixture=ic.MixedPolicy((1.0,), (off,)), costs=costs)
    report = _certify(small_mdp, broken)
    assert not report.slackness_ok
    assert not report.ok


def test_weak_duality_against_feasible_policies(small_mdp):
    d = np.asarray(small_mdp.bounds)
    feasible_v0 = []
    for k in range(2, small_mdp.theta_points.size - 1, 5):
        pol = constant_theta_policy(small_mdp, k)
        v = ic.eval_policy(small_mdp, pol).v
        if np.all(v[1:] <= d):
            feasible_v0.append(v[0])
    assert len(feasible_v0) >= 5
    for g in np.linspace(0.0, 4.0, 9):
        h = ic.dual_value(small_mdp, [g]).h
        for v0 in feasible_v0:
            assert h <= v0 + 1e-8


def test_positive_weak_duality_round_off_renders(solved, small_mdp):
    # an exact dual value may exceed the mixture value by round-off; the
    # report must still hold plain floats and bools
    bumped = dataclasses.replace(solved.trace[-1],
                                 h=float(solved.costs.v[0]) + 1e-12)
    report = _certify(
        small_mdp, dataclasses.replace(solved, trace=solved.trace + (bumped,)))
    assert report.weak_duality_violation > 0.0
    assert report.weak_duality_ok is True and report.ok is True
    rendered = json.loads(cli.render_json(report.as_dict()))
    assert rendered["weak_duality_ok"] is True


def test_dual_point_below_maximum_and_primal(solved):
    h_star = solved.h_star
    for pt in solved.trace:
        assert pt.h <= h_star + 1e-12
    assert h_star <= solved.costs.v[0] + 1e-8


# ---------------------------------------------------------------------------
# two constraints


def test_two_constraint_solve_certifies(j2_mdp):
    res = ic.solve_constrained(j2_mdp)
    assert res.costs.v[1] == pytest.approx(0.5, abs=1e-8)   # active
    assert res.costs.v[2] <= 1.9 + 1e-8                     # inactive
    assert len(res.mixture.weights) <= 3
    assert res.certificates.ok


def test_ascent_respects_inactive_boundary(j2_mdp):
    # every cut policy leaves the second constraint slack, so the cut model
    # never raises its multiplier above zero
    _, trace, _ = ic.maximize_dual(j2_mdp)
    assert all(pt.g[1] == 0.0 for pt in trace)
    assert any(pt.g[0] > 0.0 for pt in trace)


def test_infeasible_two_constraint_problem_raises():
    doc = dict(J2_DOC, bounds=[0.5, 1.6])
    prob, grid = ic.problem_from_config(doc)
    mdp = ic.discretize(prob, grid)
    with pytest.raises(ic.DualBracketError, match="increasing"):
        ic.solve_constrained(mdp)


@pytest.mark.parametrize(
    "doc", [INFEASIBLE_J1_DOC, dict(J2_DOC, bounds=[0.5, 1.6])],
    ids=["J1", "J2"])
def test_infeasible_bounds_fail_fast_on_default_config(doc):
    # both double the multiplier box up to BRACKET_CAP; the elastic master
    # LP stays solvable all the way
    prob, grid = ic.problem_from_config(doc)
    mdp = ic.discretize(prob, grid)
    t0 = time.perf_counter()
    with pytest.raises(ic.DualBracketError, match="increasing"):
        ic.solve_constrained(mdp)
    assert time.perf_counter() - t0 <= 5.0


@pytest.mark.parametrize("bounds", [[0.1, 2.5], [0.3, 2.5]])
def test_two_constraint_large_multiplier_certifies(bounds):
    # d1 = 0.1 puts g*_1 near 44, far past the initial multiplier box
    prob, grid = ic.problem_from_config(dict(J2_DOC, bounds=bounds))
    res = ic.solve_constrained(ic.discretize(prob, grid))
    assert res.certificates.ok
    assert res.costs.v[1] == pytest.approx(bounds[0], abs=1e-8)
    if bounds[0] == 0.1:
        assert res.g_star[0] > 40.0


def test_pipeline_matches_analytic_for_general_parameters():
    # alpha != 1 guards the discount scaling throughout the pipeline
    p = fluidq.FluidParams(alpha=0.5, h=2.0, K=3.0, d=3.0)
    sol = fluidq.solve_analytic(p)
    assert sol.regime == "constrained"
    prob = ic.fluid_problem(alpha=0.5, h=2.0, K=3.0, d=3.0)
    theta_max = 1.5 * fluidq.x_g(p, 0.5 * sol.g_star)
    grid = ic.GridSpec.uniform(0.0, 4.0 * sol.x_star, 300,
                               theta_max=theta_max, theta_n=300,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    res = ic.solve_constrained(mdp)
    assert abs(res.g_star[0] - sol.g_star) <= 1e-2 * sol.g_star
    assert abs(res.costs.v[0] - sol.V0) <= 1e-2 * sol.V0
    assert res.costs.v[1] == pytest.approx(3.0, abs=1e-8)
    assert res.certificates.ok
    bell = ic.solve_W(mdp, [sol.g_star])
    analytic = np.asarray([fluidq.W_star(p, sol.g_star, float(x))
                           for x in mdp.states])
    assert np.max(np.abs(bell.W - analytic)) <= 5e-3 * analytic[0]


# ---------------------------------------------------------------------------
# no constraints at all: the pipeline degenerates to a plain Bellman solve


def test_unconstrained_problem_runs_through_pipeline():
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 1.0 * x,),
        impulse_costs=(lambda x, a: 1.0 + 0.0 * x,),
        alpha=1.0, x0=0.0, bounds=(), actions=("a",))
    grid = ic.GridSpec.uniform(0.0, 4.0, 60, theta_max=4.0, theta_n=60,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    res = ic.solve_constrained(mdp)
    assert res.g_star.size == 0
    assert res.mixture.weights == (1.0,)
    # the mixture value equals the Bellman optimum at the initial state
    assert res.costs.v[0] == pytest.approx(res.W0, abs=1e-7)
    assert res.certificates.ok


@pytest.fixture(scope="module")
def split_fluid():
    """A fluid MDP of exactly 2^18 cells; its kernel is state-free."""
    mdp = fluid_mdp(state_n=512, theta_n=511)[2]
    assert mdp.costs[0].size == model._SWEEP_SPLIT_CELLS
    return mdp


@pytest.fixture(scope="module")
def split_scale():
    """custom-j2 with a scale reset on exactly 2^18 cells, as built (its
    chunks in one run per usable core): its landings depend on the state."""
    doc = custom_j2_doc(0.5, 512)
    doc["reset"] = {"type": "scale", "factor": 0.5}
    doc["grid"]["theta_n"] = 511
    mdp = ic.discretize(*ic.problem_from_config(doc))
    assert mdp.costs[0].size == model._SWEEP_SPLIT_CELLS
    return mdp


def _same_result(a, b) -> bool:
    return (np.array_equal(a.g_star, b.g_star) and a.h_star == b.h_star
            and a.W0 == b.W0 and np.array_equal(a.solution.W, b.solution.W)
            and a.mixture.weights == b.mixture.weights
            and a.mixture.policies == b.mixture.policies
            and np.array_equal(a.costs.v, b.costs.v)
            and [p.h for p in a.trace] == [p.h for p in b.trace])


def _assert_threads_get(shared, ref):
    """More callers than cores solve ``shared`` at once, with frequent
    thread switches, each join bounded; each gets ``ref``."""
    n_callers = model._usable_cores() + 1
    results = [None] * n_callers
    barrier = threading.Barrier(n_callers)

    def solve(i):
        barrier.wait(timeout=60.0)
        results[i] = ic.solve_constrained(shared)

    callers = [threading.Thread(target=solve, args=(i,)) for i in range(n_callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(r is not None and _same_result(r, ref) for r in results)


@pytest.mark.parametrize("rows", [None, 3])
def test_threads_sharing_an_mdp_get_the_single_block_answer(split_scale, rows):
    # None: a fresh copy whose state-free check and row chunks (128 rows,
    # in one run per usable core) the callers' first sweeps make
    ref = ic.solve_constrained(with_sweep_chunks(split_scale, 512))
    if rows is None:
        shared = dataclasses.replace(split_scale)
        assert "sweep_blocks" not in shared.__dict__
    else:
        shared = with_sweep_chunks(split_scale, rows)
    _assert_threads_get(shared, ref)
    assert len(shared.sweep_blocks) == {None: 4, 3: 171}[rows]
    assert shared.landing_states is None


def test_threads_sharing_a_state_free_mdp_get_the_serial_answer(split_fluid):
    # fresh copies: the callers' first sweeps and solves make the shared
    # one's landing states and weights, a serial solve the reference's
    ref = ic.solve_constrained(dataclasses.replace(split_fluid))
    shared = dataclasses.replace(split_fluid)
    _assert_threads_get(shared, ref)
    assert shared.landing_states.tolist() == [0, 1]


def _two_records(name, mdp):
    if name == "BellmanSolution":
        return [ic.policy_iteration(mdp, [1.0]) for _ in range(2)]
    if name == "DualPoint":
        return [ic.dual_value(mdp, [1.0]) for _ in range(2)]
    if name in ("DualResult", "CertificateReport"):
        results = [ic.solve_constrained(mdp) for _ in range(2)]
        return (results if name == "DualResult"
                else [r.certificates for r in results])
    if name == "CostVector":
        return [ic.CostVector(np.array([1.0, 2.0])) for _ in range(2)]
    if name == "OccupationMeasure":
        return [ic.OccupationMeasure(np.arange(6), np.ones(6), (2, 3), 6.0)
                for _ in range(2)]
    if name == "GridSpec":
        return [ic.GridSpec.uniform(0.0, 1.0, 5, 1.0, 5, 0.01) for _ in range(2)]
    return [dataclasses.replace(mdp) for _ in range(2)]


@pytest.mark.parametrize("name", [
    "BellmanSolution", "DualPoint", "DualResult", "CertificateReport",
    "CostVector", "OccupationMeasure", "GridSpec", "DiscreteMDP"])
def test_records_holding_arrays_compare_by_identity(small_mdp, name):
    # the generated __eq__ would compare ndarray fields and raise
    a, b = _two_records(name, small_mdp)
    assert type(a).__name__ == name
    assert a == a and a != b and not a == b
    assert len({a, b}) == 2
