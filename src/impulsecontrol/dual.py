"""Lagrangian dual route for the constrained problem.

The dual functional is h(g) = W*_g(x0) - sum_j g_j d_j where W*_g is the
Bellman value under the combined cost.  Each evaluation at g yields the greedy
policy f and its cost vector, and h(g') <= V0(f) + g'.(V(f) - d) for every g'
(with equality at g), so h is a pointwise minimum of affine cuts and concave.

The constrained solve maximizes h with Kelley's cutting-plane method over
those cuts (Kelley 1960), one algorithm for any number of constraints.  Read
as Dantzig-Wolfe column generation, every cut policy is also a column of the
mixture program: the feasible mixture is one small LP over the cut policies
(weights summing to 1, active constraints tight, V0 minimized), whose vertex
mixes at most J+1 of them.  Optimality certificates (feasibility, Lagrangian
value, slackness, weak duality) are checked last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .model import DiscreteMDP
from .bellman import (BellmanConfig, BellmanSolution, StationaryPolicy,
                      policy_iteration)
# unused here; the benchmark tracer (perfbench/tracing.py) patches both names
from .bellman import argmin_set, solve_W  # noqa: F401
from .policy_eval import CostVector, MixedPolicy, eval_mixture, eval_policy


class DualBracketError(RuntimeError):
    """The dual functional kept increasing up to the doubling cap.

    An unbounded dual means the primal constraints admit no strictly feasible
    point (the Slater condition fails) or no feasible point at all.
    """


class MixtureInfeasibleError(RuntimeError):
    """No convex combination of the cut policies meets the constraints.

    Retry with a finer grid.
    """


class BellmanNotConvergedError(RuntimeError):
    """A dual evaluation's Bellman solve hit its iteration cap unconverged.

    Its dual value is only a lower estimate, so the search never uses it.
    """


# The cutting-plane search keeps its multipliers in a box [0, G] that starts
# at G_INIT in every coordinate and doubles where the bound binds; past
# BRACKET_CAP the dual counts as unbounded.
G_INIT = 1.0
BRACKET_CAP = 2.0 ** 60
# multipliers above this mark their constraint active (tight in the mixture)
MULTIPLIER_TOL = 1e-6
# certificate tolerances, relative to 1 + d_j and to 1 + |h(g*)|
FEASIBILITY_TOL = 1e-6
SLACKNESS_TOL = 1e-4
CERTIFICATE_TOL = 1e-2


def _gap_tol(cfg: BellmanConfig) -> float:
    """Relative gap at which the cutting-plane search stops.

    A dual value is the exact value of its policy-iteration policy, but that
    policy is optimal only up to the switching threshold
    ``tolerance * (1 + |W|)`` per step, an error the discounting can amplify
    by 1/(1 - survival); the factor leaves room for it.
    """
    return 1e3 * cfg.tolerance


@dataclass(frozen=True)
class DualPoint:
    """One dual evaluation: multiplier, dual value, W*_g(x0), greedy slacks.

    ``solution`` is the Bellman solve at g and ``costs`` the cost vector of
    its greedy policy; together they make the cut
    h(g') <= V0 + g'.(V - d).
    """

    g: np.ndarray
    h: float
    W0: float
    slacks: np.ndarray  # V_j(greedy policy) - d_j
    solution: BellmanSolution
    costs: CostVector

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "slacks", np.asarray(self.slacks, dtype=float))

    @property
    def policy(self) -> StationaryPolicy:
        """The greedy policy of the Bellman solve at g."""
        return self.solution.policy


@dataclass(frozen=True)
class CertificateReport:
    """Optimality certificates for a dual result (report-only).

    ``feasibility_excess[j]`` is max(V_j - d_j, 0) for the mixture;
    ``lagrangian_gap`` is |V_0 + sum_j g*_j (V_j - d_j) - h(g*)|, which is the
    distance of the mixture from minimizing the Lagrangian at g*;
    ``slackness_residual`` is |sum_j g*_j (V_j - d_j)|;
    ``weak_duality_violation`` is the largest h(g) - V_0(mixture) over the
    dual trace, clipped at 0.  Each check carries its tolerance.
    """

    feasibility_excess: np.ndarray
    feasibility_tol: np.ndarray
    lagrangian_gap: float
    lagrangian_tol: float
    slackness_residual: float
    slackness_tol: float
    weak_duality_violation: float
    weak_duality_tol: float
    duality_gap: float

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.feasibility_excess <= self.feasibility_tol))

    @property
    def lagrangian_ok(self) -> bool:
        return bool(self.lagrangian_gap <= self.lagrangian_tol)

    @property
    def slackness_ok(self) -> bool:
        return bool(self.slackness_residual <= self.slackness_tol)

    @property
    def weak_duality_ok(self) -> bool:
        return bool(self.weak_duality_violation <= self.weak_duality_tol)

    @property
    def ok(self) -> bool:
        return (self.feasible and self.lagrangian_ok and self.slackness_ok
                and self.weak_duality_ok)

    def as_dict(self) -> dict:
        return {
            "feasibility_excess": list(map(float, self.feasibility_excess)),
            "feasibility_tol": list(map(float, self.feasibility_tol)),
            "feasibility_ok": self.feasible,
            "lagrangian_gap": self.lagrangian_gap,
            "lagrangian_tol": self.lagrangian_tol,
            "lagrangian_ok": self.lagrangian_ok,
            "slackness_residual": self.slackness_residual,
            "slackness_tol": self.slackness_tol,
            "slackness_ok": self.slackness_ok,
            "weak_duality_violation": self.weak_duality_violation,
            "weak_duality_tol": self.weak_duality_tol,
            "weak_duality_ok": self.weak_duality_ok,
            "duality_gap": self.duality_gap,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class DualResult:
    """Everything the constrained solve produced.

    ``slack_used`` is the relative gap of the search: at g* the mixture
    minimizes the Lagrangian within it.  ``solution`` is the Bellman solve
    at g*.
    """

    g_star: np.ndarray
    h_star: float
    W0: float
    F: tuple                     # cut policies, one per dual evaluation
    mixture: MixedPolicy
    costs: CostVector            # mixture cost vector
    certificates: CertificateReport
    trace: tuple                 # DualPoint per dual evaluation
    slack_used: float
    solution: BellmanSolution


def _bounds_vector(mdp: DiscreteMDP) -> np.ndarray:
    return np.asarray(mdp.bounds, dtype=float)


def dual_value(mdp: DiscreteMDP, g, cfg: BellmanConfig = BellmanConfig(),
               start: StationaryPolicy | None = None) -> DualPoint:
    """Evaluate the dual functional at one multiplier.

    Solves the combined-cost Bellman problem by policy iteration (from
    ``start`` when given) and returns h(g) = W*_g(x0) - sum g_j d_j together
    with the greedy policy's cost vector and constraint slacks (a
    supergradient of h at g).
    """
    g = np.atleast_1d(np.asarray(g, dtype=float))
    d = _bounds_vector(mdp)
    sol = policy_iteration(mdp, g, cfg, start)
    W0 = float(sol.W[mdp.x0_index])
    costs = eval_policy(mdp, sol.policy)
    return DualPoint(
        g=g, h=W0 - float(g @ d), W0=W0, slacks=costs.v[1:] - d,
        solution=sol, costs=costs)


def _evaluate(mdp: DiscreteMDP, g, cfg: BellmanConfig,
              start: StationaryPolicy | None = None) -> DualPoint:
    pt = dual_value(mdp, g, cfg, start)
    if not pt.solution.converged:
        raise BellmanNotConvergedError(
            f"Bellman solve at multiplier {pt.g.tolist()} did not converge "
            f"within max_iterations={cfg.max_iterations} (last sup-norm "
            f"change {pt.solution.residual:.3g}, tolerance {cfg.tolerance:.3g})")
    return pt


def _master(cuts: list, d: np.ndarray, box: np.ndarray):
    """Maximize the cut model min_k V0(f_k) + g.(V(f_k) - d) over [0, box].

    Returns the maximizer and the optimal value, an upper bound on h over
    the box.
    """
    V = np.asarray([pt.costs.v for pt in cuts])
    # variables (t, g): max t s.t. t + g.(d - V(f_k)) <= V0(f_k)
    c = np.zeros(d.size + 1)
    c[0] = -1.0
    res = linprog(
        c, A_ub=np.hstack([np.ones((len(cuts), 1)), d - V[:, 1:]]),
        b_ub=V[:, 0], bounds=[(None, None)] + [(0.0, b) for b in box],
        method="highs-ds")
    if not res.success:
        raise RuntimeError(f"cutting-plane master LP failed: {res.message}")
    return np.maximum(res.x[1:], 0.0), float(res.x[0])


def maximize_dual(mdp: DiscreteMDP, cfg: BellmanConfig = BellmanConfig()):
    """Maximize the concave dual functional over g >= 0 by cutting planes.

    ``cfg`` is the stopping rule of every policy-iteration evaluation, and
    the search's own stopping gap scales with its tolerance.  Evaluates h at
    g = 0 first; when that greedy policy already meets every bound, g* = 0.
    Otherwise each round maximizes the model built from all cuts so far over
    the box [0, G] (G starts at ``G_INIT`` = 1) and evaluates h at its
    maximizer g_m.  Coordinates of G whose bound binds double
    (``DualBracketError`` past ``BRACKET_CAP``, or when the master LP fails
    after a doubling).  Otherwise the search stops once
    h(g_m) >= UB - eps (1 + |UB|), UB being the model's maximum and eps
    1000 times ``cfg.tolerance``, or once the greedy policy at g_m is
    already a cut, so the model cannot move.  A round that neither doubles
    the box nor stops adds a new deterministic policy, of which there are
    finitely many, so the search ends.  A non-converged evaluation raises
    ``BellmanNotConvergedError``.  Each evaluation's policy iteration starts
    from the previous cut's policy.  Returns g* = g_m and the trace of every
    evaluation; the last trace point is the one at g*.
    """
    d = _bounds_vector(mdp)
    pt = _evaluate(mdp, np.zeros(d.size), cfg)
    trace = [pt]
    if np.all(pt.slacks <= 0.0):
        return pt.g, trace
    eps = _gap_tol(cfg)
    box = np.full(d.size, G_INIT)
    while True:
        try:
            g, ub = _master(trace, d, box)
        except RuntimeError as exc:
            if np.all(box == G_INIT):
                raise
            # the box only grows while h keeps increasing, and a large
            # enough box fails the LP once g.(V - d) swamps V0 in double
            # precision
            raise DualBracketError(
                f"{exc} at multiplier box {box.tolist()}; the dual "
                "functional kept increasing, so the constraints appear to "
                "admit no strictly feasible point") from exc
        pt = _evaluate(mdp, g, cfg, start=pt.policy)
        known = any(pt.policy == cut.policy for cut in trace)
        trace.append(pt)
        binds = g >= box * (1.0 - 1e-9)  # vertex on the bound, up to round-off
        if binds.any():
            box = np.where(binds, 2.0 * box, box)
            if np.any(box > BRACKET_CAP):
                raise DualBracketError(
                    f"dual functional still increasing at multiplier "
                    f"{g.tolist()} (doubling cap {BRACKET_CAP:.3g}); the "
                    "constraints appear to admit no strictly feasible point")
        elif known or pt.h >= ub - eps * (1.0 + abs(ub)):
            return g, trace


def mix_weights(values: np.ndarray, d: np.ndarray, active: np.ndarray,
                objective: np.ndarray | None = None) -> np.ndarray | None:
    """Nonnegative weights summing to 1 with constrained weighted costs.

    ``values`` is (n_candidates, J) of constraint cost values; the weighted
    sum must equal d_j where ``active`` and stay <= d_j elsewhere.  Among
    feasible weightings the ``objective`` (default: zeros) is minimized;
    returns None when infeasible.  The LP is solved with dual simplex so the
    solution is a vertex, hence supported on at most J+1 candidates.
    """
    n_cand, J = values.shape
    c = np.zeros(n_cand) if objective is None else np.asarray(objective, dtype=float)
    A_eq = [np.ones(n_cand)]
    b_eq = [1.0]
    A_ub, b_ub = [], []
    for j in range(J):
        if active[j]:
            A_eq.append(values[:, j])
            b_eq.append(d[j])
        else:
            A_ub.append(values[:, j])
            b_ub.append(d[j])
    res = linprog(
        c, A_ub=np.asarray(A_ub) if A_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(A_eq), b_eq=np.asarray(b_eq),
        bounds=(0.0, None), method="highs-ds")
    if not res.success:
        return None
    w = np.maximum(res.x, 0.0)
    w[w < 1e-12] = 0.0
    total = w.sum()
    if total <= 0.0:
        return None
    return w / total


def verify_optimality(mdp: DiscreteMDP, result: DualResult,
                      cfg: BellmanConfig = BellmanConfig()) -> CertificateReport:
    """Check the optimality certificates of a solved instance (report-only).

    Feasibility of the mixture against the MDP's bounds, Lagrangian
    minimality at g* (the mixture's Lagrangian value must match h(g*)),
    complementary slackness, and weak duality of every dual trace point
    against the mixture value.  The weak-duality tolerance grows with
    ``cfg.tolerance``; the other tolerances are the module constants
    ``FEASIBILITY_TOL``, ``CERTIFICATE_TOL`` and ``SLACKNESS_TOL``.
    """
    return _certify(result.g_star, result.h_star, result.costs, result.trace,
                    _bounds_vector(mdp), cfg)


def _certify(g: np.ndarray, h_star: float, costs: CostVector, trace,
             d: np.ndarray, cfg: BellmanConfig) -> CertificateReport:
    v = costs.v
    slack_terms = v[1:] - d
    scale = 1.0 + abs(h_star)
    weak_tol = 10.0 * cfg.tolerance + 1e-8 * scale
    violations = [pt.h - v[0] for pt in trace]
    return CertificateReport(
        feasibility_excess=np.maximum(slack_terms, 0.0),
        feasibility_tol=FEASIBILITY_TOL * (1.0 + d),
        lagrangian_gap=abs(float(v[0] + g @ slack_terms) - h_star),
        lagrangian_tol=CERTIFICATE_TOL * scale,
        slackness_residual=abs(float(g @ slack_terms)),
        slackness_tol=SLACKNESS_TOL * scale,
        weak_duality_violation=float(max([0.0, *violations])),
        weak_duality_tol=weak_tol,
        duality_gap=abs(h_star - float(v[0])),
    )


def solve_constrained(mdp: DiscreteMDP,
                      cfg: BellmanConfig = BellmanConfig()) -> DualResult:
    """Run the full dual procedure and certify the result.

    ``cfg`` is the Bellman stopping rule passed to :func:`maximize_dual` and
    the certificates.  Maximizes the dual by cutting planes, then mixes the
    cut policies with one :func:`mix_weights` program: bounds met, with
    equality on every constraint whose multiplier exceeds
    ``MULTIPLIER_TOL``, V0 minimized.  Raises MixtureInfeasibleError when
    that program has no solution.
    """
    g_star, trace = maximize_dual(mdp, cfg)
    star = trace[-1]
    d = _bounds_vector(mdp)
    V = np.asarray([pt.costs.v for pt in trace])
    active = g_star > MULTIPLIER_TOL
    w = mix_weights(V[:, 1:], d, active, objective=V[:, 0])
    if w is None:
        raise MixtureInfeasibleError(
            f"no feasible mixture of the {len(trace)} cut policies (active "
            f"constraints {np.nonzero(active)[0].tolist()}); refine the grid")
    support = np.nonzero(w > 0.0)[0]
    mixture = MixedPolicy(
        weights=tuple(float(w[i]) for i in support),
        policies=tuple(trace[i].policy for i in support))
    costs = eval_mixture(mdp, mixture)
    trace = tuple(trace)
    return DualResult(
        g_star=g_star, h_star=star.h, W0=star.W0,
        F=tuple(pt.policy for pt in trace), mixture=mixture, costs=costs,
        certificates=_certify(g_star, star.h, costs, trace, d, cfg),
        trace=trace, slack_used=_gap_tol(cfg), solution=star.solution)
