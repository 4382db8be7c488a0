"""Closed-form solution of the fluid-buffer benchmark problem.

State x >= 0 grows with unit drift, an impulse resets it to 0 at price K,
the holding cost rate is h per unit of content, costs are discounted at rate
alpha, and the discounted holding cost from x0 = 0 is bounded by d.  The
optimal behaviour is a threshold rule "impulse as soon as x >= x_star".  The
constrained regime (d < h/alpha^2) has an interior threshold and a positive
multiplier; otherwise never impulsing is optimal and the multiplier is 0.
Every transcendental root here is found by bracketed bisection on a monotone
or single-crossing residual; all functions are pure.

The expressions alpha*x - 1 + exp(-alpha*x) and 1 - (1+z)exp(-z) lose
precision to cancellation near 0 and are evaluated by their power series for
small arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFINITY = math.inf

_SERIES_CUTOFF = 0.5


def _omz(z: float) -> float:
    """z - 1 + exp(-z), accurate near 0 (series: z^2/2 - z^3/6 + ...)."""
    if z < 0.0:
        raise ValueError(f"expected z >= 0, got {z}")
    if z >= _SERIES_CUTOFF:
        return z - 1.0 + math.exp(-z)
    total = 0.0
    term = z * z / 2.0
    k = 2
    while True:
        total += term
        k += 1
        term *= -z / k
        if abs(term) <= 1e-18 * max(total, 1e-300):
            return total


def _phi2(z: float) -> float:
    """1 - (1+z)exp(-z), accurate near 0 (series: z^2/2 - z^3/3 + z^4/8 - ...)."""
    if z < 0.0:
        raise ValueError(f"expected z >= 0, got {z}")
    if z >= _SERIES_CUTOFF:
        return 1.0 - (1.0 + z) * math.exp(-z)
    total = 0.0
    sign = 1.0
    pow_z = z * z
    fact = 2.0
    k = 2
    while True:
        term = sign * pow_z * (k - 1) / fact
        total += term
        if abs(term) <= 1e-18 * max(total, 1e-300):
            return total
        k += 1
        sign = -sign
        pow_z *= z
        fact *= k


def _bisect(fn, a: float, b: float, tol: float = 1e-12, max_iter: int = 400) -> float:
    """Bisection on a sign-changing residual, stopping on |fn(x)| <= tol."""
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    best_x, best_f = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if abs(fm) < abs(best_f):
            best_x, best_f = mid, fm
        if abs(fm) <= tol:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        if b - a <= 1e-17 * (1.0 + abs(a) + abs(b)):
            break
    return best_x


@dataclass(frozen=True)
class FluidParams:
    """Benchmark parameters: discount alpha, holding rate h, impulse price K,
    holding-cost bound d.  All strictly positive."""

    alpha: float
    h: float
    K: float
    d: float

    def __post_init__(self):
        for name in ("alpha", "h", "K", "d"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form optimum.

    ``regime`` is "constrained" (interior threshold, holding-cost constraint
    active) or "unconstrained" (never impulse).  In the unconstrained regime
    x_star is INFINITY, g_star is 0, V0 is 0 and V1 is h/alpha^2; in the
    constrained regime V1 equals d exactly.
    """

    regime: str
    x_star: float
    g_star: float
    V0: float
    V1: float
    W0: float


def x_g(p: FluidParams, g: float) -> float:
    """Threshold of the multiplier-g unconstrained problem, for g > 0.

    The unique positive root of (g h / alpha)(1 - exp(-alpha x)) =
    g h x - K alpha; the residual is strictly increasing so the bisection
    bracket is certain.  Residual at the returned root is <= 1e-12.
    """
    if g <= 0.0:
        raise ValueError(f"x_g requires g > 0, got {g}")
    a_, h, K = p.alpha, p.h, p.K

    def resid(x: float) -> float:
        return g * h * x - K * a_ - (g * h / a_) * (-math.expm1(-a_ * x))

    hi = max(1.0, K * a_ / (g * h))
    while resid(hi) <= 0.0:
        hi *= 2.0
        if hi > 2.0 ** 80:
            raise ArithmeticError("failed to bracket the threshold root")
    return _bisect(resid, 0.0, hi)


def x_g_or_inf(p: FluidParams, g: float) -> float:
    """Total version of :func:`x_g`: INFINITY at g = 0 (never impulse)."""
    if g < 0.0:
        raise ValueError(f"multiplier must be >= 0, got {g}")
    if g == 0.0:
        return INFINITY
    return x_g(p, g)


def g_of_x(p: FluidParams, x: float) -> float:
    """Multiplier whose threshold is x: K alpha^2 / (h (alpha x - 1 + e^-alpha x)).

    Inverse of :func:`x_g`; the denominator is positive for every x > 0.
    """
    if x <= 0.0:
        raise ValueError(f"g_of_x requires x > 0, got {x}")
    return p.K * p.alpha ** 2 / (p.h * _omz(p.alpha * x))


def W_star(p: FluidParams, g: float, x: float) -> float:
    """Value of the multiplier-g problem at state x (0 when g = 0).

    Below the threshold the value is the wait-then-impulse expression; at and
    above it, impulsing immediately gives K plus the value at 0.
    """
    if g < 0.0:
        raise ValueError(f"multiplier must be >= 0, got {g}")
    if x < 0.0:
        raise ValueError(f"state must be >= 0, got {x}")
    if g == 0.0:
        return 0.0
    a_, h, K = p.alpha, p.h, p.K
    xg = x_g(p, g)
    W0 = K * (-math.expm1(-a_ * xg)) / _omz(a_ * xg)
    if x > xg:
        return K + W0
    wait = xg - x
    e = math.exp(-a_ * wait)
    return (K * e
            + (g * h * x / a_) * (-math.expm1(-a_ * wait))
            + (g * h / a_ ** 2) * _phi2(a_ * wait)
            + e * W0)


def dual_H(p: FluidParams, x: float) -> float:
    """Dual objective expressed through the threshold x = x_g.

    H(x) = K(1 - e^-alpha x)/(alpha x - 1 + e^-alpha x)
         - K alpha^2 d / (h (alpha x - 1 + e^-alpha x));
    H(x_g(g)) equals the dual functional value W*_g(0) - g d, and the
    definition extends to x = INFINITY (the g = 0 point) with value 0.
    """
    if x <= 0.0:
        raise ValueError(f"dual_H requires x > 0, got {x}")
    if math.isinf(x):
        return 0.0
    a_, h, K, d = p.alpha, p.h, p.K, p.d
    denom = _omz(a_ * x)
    return (K * (-math.expm1(-a_ * x)) - K * a_ ** 2 * d / h) / denom


def solve_analytic(p: FluidParams) -> AnalyticSolution:
    """Closed-form optimum of the benchmark.

    Constrained regime (d < h/alpha^2): the threshold x_star is the unique
    positive root of (1 - e^-alpha x)(h - d alpha^2) = alpha h x e^-alpha x
    (bisection residual <= 1e-12), the multiplier follows from g_of_x, the
    impulse spend is K e^-alpha x* / (1 - e^-alpha x*) and the holding cost
    equals d.  Otherwise never impulsing is optimal.
    """
    a_, h, K, d = p.alpha, p.h, p.K, p.d
    if d >= h / a_ ** 2:
        return AnalyticSolution(
            regime="unconstrained", x_star=INFINITY, g_star=0.0,
            V0=0.0, V1=h / a_ ** 2, W0=0.0)

    coeff = h - d * a_ ** 2  # > 0 in this regime

    def D(x: float) -> float:
        e = math.exp(-a_ * x)
        return a_ * h * x * e - (-math.expm1(-a_ * x)) * coeff

    lo = 1e-8
    while D(lo) <= 0.0 and lo > 1e-300:
        lo *= 0.5
    hi = max(1.0, 2.0 * lo)
    while D(hi) >= 0.0:
        hi *= 2.0
        if hi > 2.0 ** 80:
            raise ArithmeticError("failed to bracket the optimal threshold")
    x_star = _bisect(D, lo, hi)
    g_star = g_of_x(p, x_star)
    e = math.exp(-a_ * x_star)
    V0 = K * e / (-math.expm1(-a_ * x_star))
    return AnalyticSolution(
        regime="constrained", x_star=x_star, g_star=g_star,
        V0=V0, V1=d, W0=W_star(p, g_star, 0.0))


def cycle_costs(p: FluidParams, theta_hat: float) -> tuple[float, float]:
    """Cost pair of the threshold-theta_hat rule started empty.

    One cycle is a wait of theta_hat followed by a reset to 0, so both totals
    are single-cycle costs divided by 1 - exp(-alpha theta_hat).  Returns
    (impulse spend, holding cost).
    """
    if theta_hat <= 0.0:
        raise ValueError(f"theta_hat must be > 0, got {theta_hat}")
    a_, h, K = p.alpha, p.h, p.K
    if math.isinf(theta_hat):
        return 0.0, h / a_ ** 2
    denom = -math.expm1(-a_ * theta_hat)
    V0 = K * math.exp(-a_ * theta_hat) / denom
    V1 = (h / a_ ** 2) * _phi2(a_ * theta_hat) / denom
    return V0, V1
