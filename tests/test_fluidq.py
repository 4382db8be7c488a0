import math

import numpy as np
import pytest

from impulsecontrol import fluidq
from impulsecontrol.fluidq import FluidParams


P = FluidParams(alpha=1.0, h=1.0, K=1.0, d=0.5)


def _bisect_oracle(fn, lo, hi, n=200):
    """Plain interval-halving, independent of the module's root finder."""
    flo = fn(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# threshold root x_g and its inverse


def test_x_g_residual_is_tiny():
    for g in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        x = fluidq.x_g(P, g)
        resid = g * x - 1.0 - g * (1.0 - math.exp(-x))
        assert abs(resid) <= 1e-12


def test_x_g_matches_independent_bisection():
    g = 1.7
    oracle = _bisect_oracle(lambda x: g * x - 1.0 - g * (1.0 - math.exp(-x)),
                            1e-6, 50.0)
    assert fluidq.x_g(P, g) == pytest.approx(oracle, abs=1e-10)


def test_x_g_decreases_in_g():
    gs = [0.05, 0.2, 0.7, 1.5, 4.0, 12.0]
    xs = [fluidq.x_g(P, g) for g in gs]
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_x_g_total_version_handles_zero():
    assert math.isinf(fluidq.x_g_or_inf(P, 0.0))
    assert fluidq.x_g_or_inf(P, 1.0) == fluidq.x_g(P, 1.0)
    with pytest.raises(ValueError):
        fluidq.x_g(P, 0.0)


def test_g_of_x_direct_value():
    # alpha=h=K=1, x=1: denominator is 1 - 1 + e^{-1}, so g = e
    assert fluidq.g_of_x(P, 1.0) == pytest.approx(math.e, abs=1e-12)


def test_g_of_x_domain_error():
    with pytest.raises(ValueError):
        fluidq.g_of_x(P, 0.0)


def test_g_of_x_vanishes_at_infinity_monotonically():
    xs = [1.0, 2.0, 5.0, 10.0, 50.0]
    gs = [fluidq.g_of_x(P, x) for x in xs]
    assert all(a > b > 0.0 for a, b in zip(gs, gs[1:]))


def test_bijection_round_trips():
    for g in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        assert fluidq.g_of_x(P, fluidq.x_g(P, g)) == pytest.approx(g, rel=1e-8)
    for x in (0.3, 1.0, 2.5, 7.0):
        assert fluidq.x_g(P, fluidq.g_of_x(P, x)) == pytest.approx(x, rel=1e-8)


# ---------------------------------------------------------------------------
# value function


def test_W_star_zero_multiplier():
    for x in (0.0, 1.0, 13.0):
        assert fluidq.W_star(P, 0.0, x) == 0.0


def test_W_star_at_origin_matches_closed_form():
    g = 2.0
    xg = fluidq.x_g(P, g)
    expected = (1.0 - math.exp(-xg)) / (xg - 1.0 + math.exp(-xg))
    assert fluidq.W_star(P, g, 0.0) == pytest.approx(expected, abs=1e-12)


def test_W_star_branches_agree_at_threshold():
    for g in (0.4, 1.8480894645490473, 6.0):
        xg = fluidq.x_g(P, g)
        left = fluidq.W_star(P, g, xg)          # wait branch with zero wait
        right = 1.0 + fluidq.W_star(P, g, 0.0)  # impulse-now branch
        assert abs(left - right) <= 1e-10


def test_W_star_monotone_nondecreasing_in_state():
    g = 1.2
    xs = np.linspace(0.0, 5.0, 40)
    vals = [fluidq.W_star(P, g, float(x)) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# dual objective in threshold form


def test_dual_H_equals_dual_functional():
    for g in (0.3, 1.0, 2.5):
        xg = fluidq.x_g(P, g)
        assert fluidq.dual_H(P, xg) == pytest.approx(
            fluidq.W_star(P, g, 0.0) - g * P.d, abs=1e-10)
    assert fluidq.dual_H(P, math.inf) == 0.0


def test_dual_H_nondecreasing_in_loose_regime():
    for d in (1.0, 2.0):
        p = FluidParams(alpha=1.0, h=1.0, K=1.0, d=d)
        xs = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        vals = [fluidq.dual_H(p, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert fluidq.dual_H(p, math.inf) >= vals[-1] - 1e-12


def test_dual_H_derivative_changes_sign_at_x_star():
    sol = fluidq.solve_analytic(P)
    eps = 1e-4
    left = (fluidq.dual_H(P, sol.x_star) - fluidq.dual_H(P, sol.x_star - eps)) / eps
    right = (fluidq.dual_H(P, sol.x_star + eps) - fluidq.dual_H(P, sol.x_star)) / eps
    assert left > 0.0 > right


# ---------------------------------------------------------------------------
# solve_analytic


def test_solve_analytic_unconstrained_regimes():
    for d in (1.0, 2.0):
        sol = fluidq.solve_analytic(FluidParams(alpha=1.0, h=1.0, K=1.0, d=d))
        assert sol.regime == "unconstrained"
        assert math.isinf(sol.x_star) and sol.g_star == 0.0
        assert sol.V0 == 0.0 and sol.V1 == 1.0 and sol.W0 == 0.0


def test_solve_analytic_constrained_benchmark():
    sol = fluidq.solve_analytic(P)
    assert sol.regime == "constrained"
    # independent root of (1 - e^-x)(h - d a^2) = a h x e^-x
    oracle = _bisect_oracle(
        lambda x: 0.5 * (1.0 - math.exp(-x)) - x * math.exp(-x), 0.5, 10.0)
    assert sol.x_star == pytest.approx(oracle, abs=1e-10)
    resid = (1.0 - math.exp(-sol.x_star)) * 0.5 - sol.x_star * math.exp(-sol.x_star)
    assert abs(resid) <= 1e-12
    assert sol.g_star == pytest.approx(fluidq.g_of_x(P, sol.x_star), abs=1e-12)
    e = math.exp(-sol.x_star)
    assert sol.V0 == pytest.approx(e / (1.0 - e), abs=1e-12)
    assert sol.V1 == 0.5
    assert sol.W0 == pytest.approx(fluidq.W_star(P, sol.g_star, 0.0), abs=1e-12)


def test_solve_analytic_regime_boundary_sequence():
    # g* ~ 1/x* with x* ~ log(1/(1-d)), so the decay to 0 is logarithmic
    g_prev = math.inf
    for d in (0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-9):
        sol = fluidq.solve_analytic(FluidParams(alpha=1.0, h=1.0, K=1.0, d=d))
        assert sol.regime == "constrained"
        assert 0.0 < sol.g_star < g_prev
        g_prev = sol.g_star
    assert g_prev < 5e-2


# ---------------------------------------------------------------------------
# cycle costs


def test_cycle_costs_closed_forms():
    theta = 0.8
    V0, V1 = fluidq.cycle_costs(P, theta)
    e = math.exp(-theta)
    assert V0 == pytest.approx(e / (1.0 - e), abs=1e-13)
    assert V1 == pytest.approx((1.0 - e - theta * e) / (1.0 - e), abs=1e-13)


def test_cycle_costs_limits():
    _, v1_small = fluidq.cycle_costs(P, 1e-6)
    assert v1_small <= 1e-6
    V0, V1 = fluidq.cycle_costs(P, 700.0)
    assert V0 <= 1e-300 and V1 == pytest.approx(1.0, abs=1e-12)
    V0_inf, V1_inf = fluidq.cycle_costs(P, math.inf)
    assert V0_inf == 0.0 and V1_inf == 1.0


def test_cycle_costs_at_x_star_hit_the_bound():
    sol = fluidq.solve_analytic(P)
    _, V1 = fluidq.cycle_costs(P, sol.x_star)
    assert abs(V1 - P.d) <= 1e-10


def test_threshold_optimality_among_feasible():
    sol = fluidq.solve_analytic(P)
    for theta in (0.2, 0.5, 0.9, 1.1, sol.x_star):
        V0, V1 = fluidq.cycle_costs(P, theta)
        if V1 <= P.d:
            assert V0 >= sol.V0 - 1e-12


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        FluidParams(alpha=0.0, h=1.0, K=1.0, d=0.5)
    with pytest.raises(ValueError):
        FluidParams(alpha=1.0, h=1.0, K=-1.0, d=0.5)


@pytest.mark.parametrize("field", ["alpha", "h", "K", "d"])
def test_params_reject_nan(field):
    kwargs = dict(alpha=1.0, h=1.0, K=1.0, d=0.5)
    kwargs[field] = math.nan
    with pytest.raises(ValueError, match=field):
        FluidParams(**kwargs)
