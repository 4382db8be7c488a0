"""Lagrangian dual route for the constrained problem.

The dual functional is h(g) = W*_g(x0) - sum_j g_j d_j where W*_g is the
Bellman value under the combined cost.  Each evaluation at g yields the greedy
policy f and its cost vector, and h(g') <= V0(f) + g'.(V(f) - d) for every g'
(with equality at g), so h is a pointwise minimum of affine cuts and concave.
Policy iteration already solves for f's per-cost values, so the cut reads
them at x0 and evaluates nothing again.

The constrained solve maximizes h with Kelley's cutting-plane method over
those cuts (Kelley 1960), one algorithm for any number of constraints.  Its
master program is one LP and its LP dual (Dantzig and Wolfe 1960): the
restricted master over mixtures of the cut policies, whose bound-row duals
maximize the cut model over the multiplier box and whose primal weights are
the mixture.  The master has J+1 rows and one column per cut, so it is
solved in process by a dense revised primal simplex with Bland's
anti-cycling rule (Bland 1977); its optimal basis mixes at most J+1 cut
policies.  Each master after the first resumes from the last one's
optimal basis, as column generation does (Lubbecke and Desrosiers 2005):
a new cut adds a column and a box doubling changes costs, neither of which
makes that basis infeasible.  Optimality certificates (feasibility,
Lagrangian value, slackness, weak duality) are checked last, on mixture
costs evaluated independently of the search.

h, its cuts and the mixture's costs are properties of the process started
at x0.  Under a constant reset that process only visits x0 and the at most
four landing states, a set R that every action maps into itself, so the
search runs on the MDP restricted to R (:func:`search_mdp`), as do
``dual-curve`` and ``verify``'s weak-duality values, and reads the same
rows as on the full grid: its multipliers, values, cuts and weights are
bitwise those of a full-grid search.  Only the mixture's policies are
made on the full grid, one sweep each; no policy iteration runs there
(see :func:`solve_constrained`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import DiscreteMDP, _distinct
from .bellman import (BellmanConfig, BellmanSolution, StationaryPolicy,
                      _sweep, combined_cost, policy_iteration)
# unused here; the benchmark tracer (perfbench/tracing.py) patches these names
from .bellman import argmin_set, solve_W  # noqa: F401
from .policy_eval import eval_policy  # noqa: F401
from .policy_eval import CostVector, MixedPolicy, eval_mixture


class DualBracketError(RuntimeError):
    """The dual functional kept increasing up to the doubling cap.

    An unbounded dual means the primal constraints admit no strictly feasible
    point (the Slater condition fails) or no feasible point at all.
    """


class BellmanNotConvergedError(RuntimeError):
    """A dual evaluation's Bellman solve hit its iteration cap unconverged.

    Its value is that of a policy not shown optimal, not the dual value, so
    no caller uses it.
    """


# The cutting-plane search keeps its multipliers in a box [0, G] that starts
# at G_INIT in every coordinate and doubles where the bound binds; past
# BRACKET_CAP the dual counts as unbounded.
G_INIT = 1.0
BRACKET_CAP = 2.0 ** 60
# multipliers above this label a solve's regime "constrained"
MULTIPLIER_TOL = 1e-6
# safety net on the simplex loop of mix_weights, far above the pivots that
# Bland's rule takes on any master of a solve
_MAX_PIVOTS = 10_000
_TINY = np.finfo(float).tiny
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class DualResult:
    """Everything the constrained solve produced.

    ``slack_used`` is the relative gap of the search: at g* the mixture
    minimizes the Lagrangian within it.  ``trace`` and ``F`` come from the
    search, so under a constant reset their solutions and policies are on
    the search MDP's states (:func:`search_mdp`), and so is ``solution``,
    the search's own Bellman solve at g* (``trace[-1].solution``).
    ``mixture`` is on the full grid.
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


def _converged_solve(mdp: DiscreteMDP, g: np.ndarray, cfg: BellmanConfig,
                     start) -> BellmanSolution:
    """Policy iteration at ``g``; ``BellmanNotConvergedError`` at its cap."""
    sol = policy_iteration(mdp, g, cfg, start)
    if not sol.converged:
        raise BellmanNotConvergedError(
            f"Bellman solve at multiplier {g.tolist()} did not converge "
            f"within max_iterations={cfg.max_iterations} (last sup-norm "
            f"change {sol.residual:.3g}, tolerance {cfg.tolerance:.3g})")
    return sol


def _search_states(mdp: DiscreteMDP) -> np.ndarray:
    """R = landing states and x0, sorted: under a constant reset every
    action from any state lands in R, so x0's process never leaves it."""
    return _distinct(np.append(mdp.landing_states, mdp.x0_index))


def search_mdp(mdp: DiscreteMDP) -> DiscreteMDP:
    """The MDP the dual search runs on.

    Under a constant reset (``mdp.landing_states`` is not None) this is
    ``mdp`` restricted to R = landing states and x0 (at most five states):
    rows R of the costs, row 0's landing pairs renumbered into R and
    broadcast again, and x0 at its place in R.  Its sweeps, policy solves
    and values at x0 are bitwise those of ``mdp`` on R.  Any other kernel
    gives ``mdp`` itself.
    """
    if mdp.landing_states is None:
        return mdp
    R = _search_states(mdp)
    pairs = np.searchsorted(R, mdp.next_states[:1]).astype(mdp.next_states.dtype)
    return replace(
        mdp, states=mdp.states[R], x0_index=int(np.searchsorted(R, mdp.x0_index)),
        next_states=np.broadcast_to(pairs, (R.size,) + pairs.shape[1:]),
        next_weights=np.broadcast_to(mdp.next_weights[:1],
                                     (R.size,) + pairs.shape[1:]),
        costs=mdp.costs[:, R])


def _lift(mdp: DiscreteMDP, pt: DualPoint) -> StationaryPolicy:
    """``pt``'s search policy on the full grid of ``mdp``: its actions on R,
    and off R the smallest-index minimizer at ``pt.g`` (one sweep, which
    reads W only at the landing states, so W is filled on R alone)."""
    R = _search_states(mdp)
    W = np.zeros(mdp.n_states)
    W[R] = pt.solution.W
    flat, _, _ = _sweep(mdp, W, combined_cost(mdp, pt.g))
    flat[R] = pt.policy.flat
    return StationaryPolicy(flat, mdp.n_labels)


def dual_value(mdp: DiscreteMDP, g, cfg: BellmanConfig = BellmanConfig(),
               start: StationaryPolicy | BellmanSolution | None = None
               ) -> DualPoint:
    """Evaluate the dual functional at one multiplier.

    Solves the combined-cost Bellman problem by policy iteration (from
    ``start`` when given) and returns h(g) = W*_g(x0) - sum g_j d_j together
    with the greedy policy's cost vector and constraint slacks (a
    supergradient of h at g).  The cost vector is the solve's own per-cost
    values at x0, ``solution.V[x0]``, so the cut costs no further policy
    evaluation.  A ``start`` given as an earlier evaluation's ``solution``
    takes its first step from that solution's values (see
    :func:`policy_iteration`).  Raises ``BellmanNotConvergedError`` when
    policy iteration stops at its step cap, whose value is then not h(g).
    """
    g = np.atleast_1d(np.asarray(g, dtype=float))
    d = _bounds_vector(mdp)
    sol = _converged_solve(mdp, g, cfg, start)
    W0 = float(sol.W[mdp.x0_index])
    costs = CostVector(sol.V[mdp.x0_index])
    return DualPoint(
        g=g, h=W0 - float(g @ d), W0=W0, slacks=costs.v[1:] - d,
        solution=sol, costs=costs)


def mix_weights(V: np.ndarray, d: np.ndarray, box: np.ndarray, basis=None):
    """Solve the restricted master program over the cut policies.

    ``V`` is (n_cuts, 1 + J), row k the cost vector (V0, V_1, ..., V_J) of
    cut policy f_k.  The LP is the elastic Dantzig-Wolfe master

        min  sum_k w_k V0(f_k) + sum_j box_j mu_j
        s.t. sum_k w_k V_j(f_k) - mu_j <= d_j,  sum_k w_k = 1,  w, mu >= 0,

    which is always feasible.  Its LP dual maximizes the cut model
    min_k V0(f_k) + g.(V(f_k) - d) over g in [0, box], so the bound rows'
    duals g maximize the model, the optimal value UB bounds h from above on
    the box, and w is a mixture of the cut policies.  Where g_j < box_j,
    mu_j = 0 and complementary slackness makes bound j tight when g_j > 0.

    The LP is solved in process by a dense revised primal simplex with
    Bland's anti-cycling rule (Bland 1977) on the standard form with slacks
    s_j.  Its columns are w_1..w_K, mu_1..mu_J, s_1..s_J, and ``basis``,
    when given, holds J+1 of them, a primal feasible basis to start from:
    the optimal basis of an earlier master, whose columns stay feasible
    when cuts are added or ``box`` changes, since b = (d, 1) does not.
    Otherwise the simplex starts from the cut of least elastic cost, which
    is a feasible basis.  It ends on a basis of J+1 columns, so at most J+1
    cuts carry weight.  Returns (w, g, UB, basis), the last the optimal
    basis; raises RuntimeError when the simplex hits its pivot cap, meets a
    singular basis or a column tolerance that overflows, or ends on a
    non-finite solution.
    """
    n_cuts, J = V.shape[0], d.size
    if not np.isfinite(V).all():
        raise RuntimeError("cutting-plane master LP failed: non-finite cut costs")
    # columns w_1..w_K, mu_1..mu_J, s_1..s_J; rows the J bounds, then sum w
    c = np.concatenate([V[:, 0], box, np.zeros(J)])
    A = np.zeros((J + 1, n_cuts + 2 * J))
    A[:J, :n_cuts] = V[:, 1:].T
    A[:J, n_cuts:] = np.hstack([-np.eye(J), np.eye(J)])
    A[J, :n_cuts] = 1.0
    b = np.append(d, 1.0)
    absA = np.abs(A)
    if basis is None:
        excess = V[:, 1:] - d
        k0 = int(np.argmin(V[:, 0] + np.maximum(excess, 0.0) @ box))
        rows = np.arange(J)
        basis = np.append(np.where(excess[k0] > 0.0, n_cuts + rows,
                                   n_cuts + J + rows), k0)
    else:
        basis = np.array(basis, dtype=np.intp)  # the pivots write into it
    for _ in range(_MAX_PIVOTS):
        try:
            B_inv = np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"cutting-plane master LP failed: {exc}") from exc
        # tied cut costs make exact zeros in B^-1 that come out as
        # round-off; dropped, they keep a huge box out of the y_j
        # that do not depend on it, and move each y_j by at most drop
        row_max = np.abs(B_inv).max(axis=1)
        B_inv[np.abs(B_inv) <= 1e-14 * row_max[:, None]] = 0.0
        drop = 1e-14 * float(np.abs(c[basis]) @ row_max)
        x_B = B_inv @ b
        y = c[basis] @ B_inv
        r = c - y @ A
        r[basis] = 0.0
        # Bland: the lowest-index improving column enters, and of the
        # ratio-test ties the lowest-index basic variable leaves.  The
        # tolerance is per column: round-off on the terms of r_e (box
        # enters c), plus what the drop moved y by, which also covers a
        # y that cancels to round-off, plus a floor for subnormal r_e.
        with np.errstate(over="ignore"):
            tol = (1e-12 * (np.abs(c) + np.abs(y) @ absA)
                   + drop * absA.sum(axis=0) + _TINY)
        if not np.isfinite(tol).all():
            raise RuntimeError(
                "cutting-plane master LP failed: non-finite column tolerance")
        improving = np.flatnonzero(r < -tol)
        if improving.size == 0:
            break
        u = B_inv @ A[:, improving[0]]
        pivots = np.flatnonzero(u > 1e-12 * np.abs(u).max())
        if pivots.size == 0:  # box >= 0 rules out an unbounded ray
            raise RuntimeError(
                "cutting-plane master LP failed: unbounded ray")
        ratio = np.maximum(x_B[pivots], 0.0) / u[pivots]
        ties = pivots[ratio <= ratio.min() + 1e-12 * (1.0 + ratio.min())]
        basis[ties[np.argmin(basis[ties])]] = improving[0]
    else:
        raise RuntimeError(
            f"cutting-plane master LP failed: no optimal basis within "
            f"{_MAX_PIVOTS} pivots")
    x = np.zeros(c.size)
    x[basis] = x_B
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise RuntimeError(
            "cutting-plane master LP failed: non-finite solution")
    w = np.maximum(x[:n_cuts], 0.0)
    w[w < 1e-12] = 0.0
    return w / w.sum(), np.clip(-y[:J], 0.0, box), float(c @ x), basis


def maximize_dual(mdp: DiscreteMDP, cfg: BellmanConfig = BellmanConfig()):
    """Maximize the concave dual functional over g >= 0 by cutting planes.

    ``cfg`` is the stopping rule of every policy-iteration evaluation, and
    the search's own stopping gap scales with its tolerance.  Evaluates h at
    g = 0 first; when that greedy policy already meets every bound, g* = 0.
    Otherwise each round solves the master program :func:`mix_weights` on
    all cuts so far over the box [0, G] (G starts at ``G_INIT`` = 1) and
    evaluates h at its multiplier g_m.  Coordinates of G whose bound binds
    double (``DualBracketError``, naming the bounds that grew, past
    ``BRACKET_CAP`` or when the master LP fails after a doubling).
    Otherwise the search stops once h(g_m) >= UB - eps (1 + |UB|), UB being
    the model's maximum and eps 1000 times ``cfg.tolerance``, or once the
    greedy policy at g_m is already a cut, so the model cannot move.  A
    round that neither doubles the box nor stops adds a new deterministic
    policy, of which there are finitely many, so the search ends.  A
    non-converged evaluation raises ``BellmanNotConvergedError``.  Each
    evaluation's policy iteration starts from the previous cut's solution
    and takes its first step from that solution's per-cost values.  The
    first master starts from the cut of least elastic cost; every later
    one has one cut more and resumes from the last one's optimal basis,
    its mu and s columns moved up one past the new cut.

    Returns (g*, trace, weights): g* = g_m, the trace of every evaluation
    (the last one is at g*), and the mixture weights over the trace's
    leading cuts from the master program that gave g*, or ``[1.0]`` when
    g* = 0 at the first evaluation.  A search that stops on the gap solves
    the master once more, the cut at g* among its columns, and returns its
    weights over every cut: they can only lower the mixture's cost.  The
    trace's solutions are on the states of ``mdp``, which
    :func:`solve_constrained` gives as :func:`search_mdp`'s restriction
    under a constant reset.
    """
    d = _bounds_vector(mdp)
    pt = dual_value(mdp, np.zeros(d.size), cfg)
    trace = [pt]
    if np.all(pt.slacks <= 0.0):
        return pt.g, trace, np.ones(1)
    eps = _gap_tol(cfg)
    box = np.full(d.size, G_INIT)

    def master(basis):
        # every master has one cut more than the last, so the last one's
        # mu and s columns move up one
        if basis is not None:
            basis = basis + (basis >= len(trace) - 1)
        return mix_weights(np.asarray([p.costs.v for p in trace]), d, box,
                           basis)

    basis = None
    while True:
        try:
            w, g, ub, basis = master(basis)
        except RuntimeError as exc:
            if np.all(box == G_INIT):
                raise
            # the box only grows while h keeps increasing, so a master
            # that fails on a grown box counts as an unbounded dual
            raise _unbounded(f"{exc} at multiplier box {box.tolist()}; the "
                             "dual functional kept increasing", trace, d,
                             box, G_INIT) from exc
        pt = dual_value(mdp, g, cfg, start=pt.solution)
        known = any(pt.policy == cut.policy for cut in trace)
        trace.append(pt)
        binds = g >= box * (1.0 - 1e-9)  # vertex on the bound, up to round-off
        if binds.any():
            box = np.where(binds, 2.0 * box, box)
            if np.any(box > BRACKET_CAP):
                raise _unbounded(
                    f"dual functional still increasing at multiplier "
                    f"{g.tolist()} (doubling cap {BRACKET_CAP:.3g})", trace,
                    d, box, BRACKET_CAP)
        elif known:
            return g, trace, w
        elif pt.h >= ub - eps * (1.0 + abs(ub)):
            # stopped on the gap: the master over every cut, this one too,
            # can only lower the mixture's cost
            return g, trace, master(basis)[0]


def _unbounded(why: str, trace, d: np.ndarray, box, cap) -> DualBracketError:
    """The unbounded-dual error for ``why``, naming the bounds whose box
    passed ``cap`` if the cuts all miss one (least V_j > d_j), else every
    bound whose box grew: one that is met alone may pass the cap first."""
    least = np.min([pt.costs.v[1:] for pt in trace], axis=0)
    grown = box > (cap if ((box > cap) & (least > d)).any() else G_INIT)
    return DualBracketError(
        f"{why}; the constraints appear to admit no strictly feasible point: "
        + "; ".join(f"bound {j + 1} (d_{j + 1} = {d[j]:.6g}, least V_{j + 1} "
                    f"of any cut {least[j]:.6g})" for j in np.flatnonzero(grown)))


def _certify(g: np.ndarray, h_star: float, costs: CostVector, trace,
             d: np.ndarray, cfg: BellmanConfig) -> CertificateReport:
    """The certificates of mixture costs ``costs`` against bounds ``d``.

    The weak-duality tolerance grows with ``cfg.tolerance``; the others are
    ``FEASIBILITY_TOL``, ``CERTIFICATE_TOL`` and ``SLACKNESS_TOL``.
    """
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
    the certificates.  The mixture is the primal solution of the master
    program that gave g* (or of the one after it, see
    :func:`maximize_dual`): bounds met, tight where g*_j > 0, V0 minimized
    over the cut policies.  Its costs are re-evaluated policy by policy for
    the certificates.

    :func:`maximize_dual` runs on :func:`search_mdp`, so under a constant
    reset ``trace`` and ``F`` hold solutions and policies on R = landing
    states and x0, and ``solution`` is the search's last policy iteration,
    the one at g*, on R too.  No policy iteration runs on the full grid:
    every action lands in R, so off R the values at g* are one Bellman
    backup of those on R, and a full-grid policy iteration started from the
    last cut lifted to the grid would stop after one step with that policy.
    The mixture's policies are the support cuts lifted to the grid, one
    sweep each (:func:`_lift`: its actions on R, the smallest-index
    minimizer at its multiplier elsewhere).  Off R a lifted action can
    differ from a full-grid search's only where two actions tie within the
    switching threshold, at states x0 never reaches, so costs and
    certificates do not move.
    """
    search = search_mdp(mdp)
    g_star, trace, w = maximize_dual(search, cfg)
    star = trace[-1]
    support = np.nonzero(w)[0]
    mixture = MixedPolicy(
        weights=tuple(float(w[i]) for i in support),
        policies=tuple(trace[i].policy if search is mdp
                       else _lift(mdp, trace[i]) for i in support))
    costs = eval_mixture(mdp, mixture)
    trace = tuple(trace)
    return DualResult(
        g_star=g_star, h_star=star.h, W0=star.W0,
        F=tuple(pt.policy for pt in trace), mixture=mixture, costs=costs,
        certificates=_certify(g_star, star.h, costs, trace,
                              _bounds_vector(mdp), cfg),
        trace=trace, slack_used=_gap_tol(cfg), solution=star.solution)
