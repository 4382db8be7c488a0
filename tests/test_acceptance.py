"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
The suite solves the fluid benchmark (alpha=1, h=1, K=1) at production grid
sizes and checks the numeric pipeline against the closed-form optimum plus
the structural identities (occupation measures, duality, monotonicity).
"""

import math
import time

import numpy as np
import pytest

import impulsecontrol as ic
from impulsecontrol import fluidq

from conftest import constant_theta_policy, fluid_doc, fluid_mdp

PARAMS = fluidq.FluidParams(alpha=1.0, h=1.0, K=1.0, d=0.5)
ANALYTIC = fluidq.solve_analytic(PARAMS)


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bench():
    """Benchmark solve: >= 400 state points on [0, 4 x*], >= 400 thetas."""
    prob, grid, mdp = fluid_mdp(d=0.5, state_n=400, theta_n=400,
                                state_max=4.0 * ANALYTIC.x_star, theta_max=5.0)
    t0 = time.perf_counter()
    result = ic.solve_constrained(mdp)
    wall = time.perf_counter() - t0
    return prob, grid, mdp, result, wall


@pytest.fixture(scope="module")
def small():
    """Coarser instance for the dual-curve sweeps."""
    return fluid_mdp(d=0.5, state_n=120, theta_n=120,
                     state_max=4.0 * ANALYTIC.x_star, theta_max=5.0)


def test_criterion_1_constrained_benchmark(bench):
    _, _, mdp, result, wall = bench
    # analytic threshold root residual (bisection target 1e-12)
    x = ANALYTIC.x_star
    resid = abs((1.0 - math.exp(-x)) * (1.0 - 0.5) - x * math.exp(-x))
    g_err = abs(result.g_star[0] - ANALYTIC.g_star) / ANALYTIC.g_star
    v0_err = abs(result.costs.v[0] - ANALYTIC.V0) / ANALYTIC.V0
    v1_err = abs(result.costs.v[1] - PARAMS.d) / PARAMS.d
    ok = (resid <= 1e-12 and g_err <= 1e-2 and v0_err <= 1e-2
          and v1_err <= 5e-3 and wall <= 10.0)
    _report("criterion-1 constrained benchmark", ok,
            f"x* residual {resid:.2e}; rel errors g* {g_err:.2e}, "
            f"V0 {v0_err:.2e}, V1 {v1_err:.2e}; wall {wall:.2f}s")


def test_grid_error_falls_with_the_grid_step():
    # fluid-tight's centre (d = 0.1, states and waits on [0, 4x*]), n x n:
    # g* converges at first order in the step and V0 at second, measured
    # at about 2.0x and 4.0x per halving; a change that loses an order of
    # either fails here
    tight = fluidq.solve_analytic(fluidq.FluidParams(1.0, 1.0, 1.0, 0.1))
    errors = []
    for n in (100, 200, 400, 800):
        res = ic.solve_constrained(ic.discretize(
            *ic.problem_from_config(fluid_doc(0.1, n))))
        errors.append((abs(res.g_star[0] - tight.g_star) / tight.g_star,
                       abs(res.costs.v[0] - tight.V0) / tight.V0))
    for (g_coarse, v_coarse), (g_fine, v_fine) in zip(errors, errors[1:]):
        assert g_coarse >= 1.6 * g_fine, errors
        assert v_coarse >= 3.0 * v_fine, errors


def test_criterion_2_unconstrained_regimes():
    details, ok = [], True
    for d in (1.0, 2.0):
        _, _, mdp = fluid_mdp(d=d, state_n=240, theta_n=240,
                              state_max=5.0, theta_max=5.0)
        res = ic.solve_constrained(mdp)
        g, v0, v1 = res.g_star[0], res.costs.v[0], res.costs.v[1]
        ok &= g <= 1e-4 and v0 <= 1e-6 and abs(v1 - 1.0) <= 5e-3
        details.append(f"d={d}: g*={g:.2e} V0={v0:.2e} V1={v1:.6f}")
    _report("criterion-2 unconstrained regimes", ok, "; ".join(details))


def test_criterion_3_bellman_vs_closed_form(bench):
    _, _, mdp, _, _ = bench
    g_star = ANALYTIC.g_star
    details, ok = [], True
    errors = {}
    for mult in (0.5, 1.0, 2.0):
        g = mult * g_star
        sol = ic.solve_W(mdp, [g])
        analytic = np.asarray(
            [fluidq.W_star(PARAMS, g, float(x)) for x in mdp.states])
        err = float(np.max(np.abs(sol.W - analytic)))
        errors[mult] = err
        dx = float(np.diff(mdp.states)[0])
        dth = float(mdp.theta_points[1] - mdp.theta_points[0])
        tol = 5e-3 * fluidq.W_star(PARAMS, g, 0.0) + (dx * dx + dth * dth)
        ok &= err <= tol
        details.append(f"g={g:.3f}: sup err {err:.2e} (tol {tol:.2e})")
    # refining both grids by 2x must reduce the error at g*
    _, _, fine = fluid_mdp(d=0.5, state_n=800, theta_n=800,
                           state_max=4.0 * ANALYTIC.x_star, theta_max=5.0)
    sol_f = ic.solve_W(fine, [g_star])
    analytic_f = np.asarray(
        [fluidq.W_star(PARAMS, g_star, float(x)) for x in fine.states])
    err_f = float(np.max(np.abs(sol_f.W - analytic_f)))
    ok &= err_f < errors[1.0]
    details.append(f"refined 2x: {errors[1.0]:.2e} -> {err_f:.2e}")
    _report("criterion-3 value function vs closed form", ok, "; ".join(details))


def test_criterion_4_weak_duality(bench):
    _, _, mdp, _, _ = bench
    d = np.asarray(mdp.bounds)
    feasible = []
    for k in range(2, mdp.theta_points.size - 1, 7):
        pol = constant_theta_policy(mdp, k)
        v = ic.eval_policy(mdp, pol).v
        if np.all(np.isfinite(v)) and np.all(v[1:] <= d):
            feasible.append(float(v[0]))
    gs = np.linspace(0.0, 4.0, 21)
    worst = -math.inf
    for g in gs:
        h = ic.dual_value(mdp, [g]).h
        worst = max(worst, h - min(feasible))
    ok = len(feasible) >= 5 and worst <= 10.0 * 1e-9
    _report("criterion-4 weak duality", ok,
            f"{len(gs)} multipliers x {len(feasible)} feasible policies, "
            f"max h(g) - V0 = {worst:.2e}")


def test_criterion_5_slackness_and_strong_duality(bench):
    _, _, mdp, result, _ = bench
    v = result.costs.v
    slack = abs(float(result.g_star @ (v[1:] - np.asarray(mdp.bounds))))
    gap = abs(result.h_star - v[0]) / abs(result.h_star)
    ok = slack <= 1e-4 * (1.0 + abs(result.h_star)) and gap <= 1e-2
    _report("criterion-5 complementary slackness / strong duality", ok,
            f"slackness {slack:.2e}, duality gap {gap:.2e} relative")


def test_criterion_6_occupation_identities(bench):
    _, _, mdp, _, _ = bench
    ks = np.unique(np.linspace(30, mdp.theta_points.size - 2, 5).astype(int))
    worst_char, worst_mass, worst_dual = 0.0, 0.0, 0.0
    for k in ks:
        pol = constant_theta_policy(mdp, int(k))
        mu = ic.occupation_measure(mdp, pol)
        worst_char = max(worst_char, ic.check_characteristic(mdp, mu))
        theta = float(mdp.theta_points[k])
        expect = 1.0 / (1.0 - math.exp(-theta))
        worst_mass = max(worst_mass,
                         abs(mu.state_marginal[mdp.x0_index] - expect))
        v = ic.eval_policy(mdp, pol).v
        dual = np.tensordot(mu.mass, mdp.costs, axes=([0, 1], [1, 2]))
        worst_dual = max(worst_dual,
                         float(np.max(np.abs(dual - v) / (1.0 + np.abs(v)))))
    ok = worst_char <= 1e-9 and worst_mass <= 1e-8 and worst_dual <= 1e-8
    _report("criterion-6 occupation measure identities", ok,
            f"5 policies: char {worst_char:.2e}, origin mass {worst_mass:.2e}, "
            f"cost duality {worst_dual:.2e}")


def test_criterion_7_oracle_triangle(bench):
    prob, grid, mdp, _, _ = bench
    ks = np.unique(np.linspace(30, mdp.theta_points.size - 2, 5).astype(int))
    worst = 0.0
    for k in ks:
        pol = constant_theta_policy(mdp, int(k))
        v_traj = ic.eval_policy(mdp, pol).v
        mu = ic.occupation_measure(mdp, pol)
        v_mu = np.tensordot(mu.mass, mdp.costs, axes=([0, 1], [1, 2]))
        v_sim = ic.simulate_oracle(prob, ic.policy_rule(mdp, pol), horizon=6000,
                                   step=grid.quadrature_step).v
        for a, b in ((v_traj, v_mu), (v_traj, v_sim), (v_mu, v_sim)):
            worst = max(worst, float(np.max(np.abs(a - b) / (1.0 + np.abs(a)))))
    ok = worst <= 1e-6
    _report("criterion-7 oracle triangle", ok,
            f"pairwise relative disagreement {worst:.2e} over 5 policies")


def test_criterion_8_dual_concavity(small):
    _, _, mdp = small
    rng = np.random.default_rng(2024)
    cache = {}

    def h(g):
        if g not in cache:
            cache[g] = ic.dual_value(mdp, [g]).h
        return cache[g]

    worst = -math.inf
    tested = 0
    while tested < 50:
        g1, g2, g3 = np.sort(rng.uniform(0.0, 4.0, 3))
        if g3 - g1 < 1e-4 or g2 - g1 < 1e-6 or g3 - g2 < 1e-6:
            continue
        lam = (g2 - g1) / (g3 - g1)
        chord = (1.0 - lam) * h(g1) + lam * h(g3)
        slack_tol = 2e-6 * (1.0 + abs(h(g2)))
        worst = max(worst, chord - h(g2) - slack_tol)
        tested += 1
    ok = worst <= 0.0
    _report("criterion-8 dual concavity", ok,
            f"50 chords, worst violation beyond tolerance {worst:.2e}")


def test_criterion_9_monotone_bounded_iteration(bench):
    prob, grid, mdp, _, _ = bench
    c_hat = ic.validate(prob, grid).cost_sup
    bound = 2.0 * c_hat * (1.0 / 1.0 + 1.0)  # (J+1) C_hat (1/alpha + 1)
    ok = True
    worst_iterate = 0.0
    for mult in (0.5, 1.0, 2.0):
        iterates = []
        ic.solve_W(mdp, [mult * ANALYTIC.g_star],
                   on_iterate=lambda k, W: iterates.append(W))
        for prev, cur in zip(iterates, iterates[1:]):
            ok &= bool(np.all(cur >= prev))
        top = max(float(np.max(W)) for W in iterates)
        worst_iterate = max(worst_iterate, top)
        ok &= top <= bound
    _report("criterion-9 monotone bounded value iteration", ok,
            f"max iterate {worst_iterate:.3f} <= bound {bound:.3f}, "
            "pointwise nondecreasing")


def test_criterion_10_analytic_self_consistency():
    ok = True
    details = []
    # bijection round trips
    worst_rt = 0.0
    for g in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        back = fluidq.g_of_x(PARAMS, fluidq.x_g(PARAMS, g))
        worst_rt = max(worst_rt, abs(back - g) / g)
    ok &= worst_rt <= 1e-8
    details.append(f"round trip {worst_rt:.2e}")
    # branch continuity at the threshold
    worst_cont = 0.0
    for g in (0.4, ANALYTIC.g_star, 6.0):
        xg = fluidq.x_g(PARAMS, g)
        left = fluidq.W_star(PARAMS, g, xg)
        right = PARAMS.K + fluidq.W_star(PARAMS, g, 0.0)
        worst_cont = max(worst_cont, abs(left - right))
    ok &= worst_cont <= 1e-10
    details.append(f"branch continuity {worst_cont:.2e}")
    # the optimal threshold cycle meets the bound exactly
    _, v1 = fluidq.cycle_costs(PARAMS, ANALYTIC.x_star)
    ok &= abs(v1 - PARAMS.d) <= 1e-10
    details.append(f"cycle V1 - d = {abs(v1 - PARAMS.d):.2e}")
    _report("criterion-10 analytic self-consistency", ok, "; ".join(details))
