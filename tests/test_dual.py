import dataclasses
import json
import math
import time

import numpy as np
import pytest

import impulsecontrol as ic
from impulsecontrol import cli, fluidq
from impulsecontrol.dual import mix_weights

from conftest import J2_DOC, constant_theta_policy, fluid_mdp


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
        g_star, trace = ic.maximize_dual(mdp)
        assert g_star[0] <= 1e-4


def test_maximizer_matches_analytic(small_mdp, bench_analytic):
    # 3% on this coarse unit grid; the 1% contract on production grids is
    # covered by the acceptance benchmark
    g_star, trace = ic.maximize_dual(small_mdp)
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


def test_mix_weights_interpolates_to_equality():
    values = np.asarray([[0.2], [0.8]])
    w = mix_weights(values, d=np.asarray([0.5]), active=np.asarray([True]))
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_mix_weights_inactive_constraint_picks_cheapest():
    values = np.asarray([[0.2], [0.8]])
    w = mix_weights(values, d=np.asarray([1.0]), active=np.asarray([False]),
                    objective=np.asarray([3.0, 1.0]))
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)


def test_mix_weights_infeasible_returns_none():
    values = np.asarray([[0.8], [0.9]])
    assert mix_weights(values, np.asarray([0.5]), np.asarray([True])) is None


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
            theta = float(small_mdp.theta_of_action(int(pol.flat[i])))
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
    report = ic.verify_optimality(small_mdp, broken)
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
    report = ic.verify_optimality(
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
    _, trace = ic.maximize_dual(j2_mdp)
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
    # J = 1 doubles up to BRACKET_CAP; J = 2 stops where the grown box makes
    # the master LP fail, which must not surface as a raw RuntimeError
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
        alpha=1.0, x0=0.0, bounds=(), actions=("a",),
        constant_rates=(None,))
    grid = ic.GridSpec.uniform(0.0, 4.0, 60, theta_max=4.0, theta_n=60,
                               quadrature_step=0.01)
    mdp = ic.discretize(prob, grid)
    res = ic.solve_constrained(mdp)
    assert res.g_star.size == 0
    assert res.mixture.weights == (1.0,)
    # the mixture value equals the Bellman optimum at the initial state
    assert res.costs.v[0] == pytest.approx(res.W0, abs=1e-7)
    assert res.certificates.ok
