"""Impulse control problems over deterministic flows and their induced discrete MDPs.

A problem is given by a semiflow phi(x, t), a jump map l(x, a), J+1 pairs of
cost functions (running rate, lump impulse cost), a discount factor alpha and
constraint bounds d_1..d_J.  Solvers in this package operate on the induced
discrete-time MDP in which one step corresponds to one impulse: the action is
a pair (theta, a) of waiting time and impulse, discounting is encoded as
killing with survival probability exp(-alpha*theta), and the killed mass goes
to an absorbing costless cemetery state.

This module owns discretization onto a finite state/waiting-time grid:
running-cost integrals are computed by composite Simpson quadrature, landing
states are represented by linear interpolation weights between bracketing grid
points, and the infinite waiting time is kept as an exact sentinel (never a
large float) so that killing is exact.

User maps (flow, reset, cost rates, lump costs) are called once on whole-grid
numpy arrays, so they should be written with numpy operations.  A map that
only accepts scalars still works: when a call on arrays raises TypeError or
ValueError (what numpy raises when ``math.exp`` or an ``if`` meets an array)
the map is evaluated point by point, which is much slower.  Any other
exception from a user map propagates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

INFINITY = math.inf


class Cemetery:
    """Absorbing, costless terminal state (unique instance ``CEMETERY``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CEMETERY"


CEMETERY = Cemetery()

# Horizon (in units of 1/alpha) for quadrature of infinite-wait running costs.
# exp(-60) ~ 9e-27, negligible for any subexponential cost rate.
_INF_HORIZON = 60.0


@dataclass(frozen=True)
class ImpulseProblem:
    """Continuous-time impulse control problem.

    Parameters
    ----------
    flow:
        Semiflow phi(x, t); must satisfy phi(x, 0) = x and
        phi(phi(x, s), t) = phi(x, s + t).
    reset:
        Jump map l(x, a) applied at impulse times.
    gradual_costs:
        J+1 running cost-rate maps x -> rate >= 0.
    impulse_costs:
        J+1 lump-cost maps (x, a) -> cost >= 0.
    alpha:
        Discount factor, > 0.
    x0:
        Initial state, finite.
    bounds:
        Constraint bounds d_1..d_J, all > 0 (empty for unconstrained).
    actions:
        Finite list of impulse action labels.
    constant_rates:
        Optional per-cost declaration: entry j is the constant value of
        gradual_costs[j] if that rate is constant along every flow segment,
        else None.  Constant rates take an exact closed-form integration path.
    """

    flow: Callable
    reset: Callable
    gradual_costs: tuple
    impulse_costs: tuple
    alpha: float
    x0: float
    bounds: tuple
    actions: tuple
    constant_rates: tuple | None = None

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if len(self.gradual_costs) != len(self.impulse_costs):
            raise ValueError("gradual_costs and impulse_costs must have equal length")
        if len(self.gradual_costs) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} cost pairs for "
                f"{len(self.bounds)} constraints, got {len(self.gradual_costs)}"
            )
        if not all(d > 0.0 for d in self.bounds):
            raise ValueError(f"all constraint bounds must be > 0, got {self.bounds}")
        if not self.actions:
            raise ValueError("at least one impulse action is required")
        if self.constant_rates is not None and len(self.constant_rates) != len(self.gradual_costs):
            raise ValueError("constant_rates must have one entry per cost index")

    @property
    def n_constraints(self) -> int:
        return len(self.bounds)

    @property
    def n_costs(self) -> int:
        return len(self.gradual_costs)

    def constant_rate(self, j: int) -> float | None:
        if self.constant_rates is None:
            return None
        return self.constant_rates[j]


@dataclass(frozen=True)
class GridSpec:
    """Finite truncation of the state space and waiting-time axis.

    ``state_points`` is a strictly increasing array of finite points covering
    the truncated state interval; ``theta_points`` is a sorted array of
    finite waiting times that starts at 0.0 and ends with the INFINITY
    sentinel; ``quadrature_step`` bounds the Simpson step for running-cost
    integrals.
    """

    state_points: np.ndarray
    theta_points: np.ndarray
    quadrature_step: float

    def __post_init__(self):
        sp = np.asarray(self.state_points, dtype=float)
        tp = np.asarray(self.theta_points, dtype=float)
        object.__setattr__(self, "state_points", sp)
        object.__setattr__(self, "theta_points", tp)
        if sp.size < 2:
            raise ValueError("state_points must hold at least two points")
        if not np.all(np.isfinite(sp)):
            raise ValueError("state_points must be finite")
        if np.any(np.diff(sp) <= 0.0):
            raise ValueError("state_points must be strictly increasing")
        if tp.size < 2 or tp[0] != 0.0 or tp[-1] != INFINITY:
            raise ValueError("theta_points must start at 0.0 and end with INFINITY")
        if not np.all(np.isfinite(tp[:-1])):
            raise ValueError("theta_points before the INFINITY sentinel must be finite")
        if np.any(np.diff(tp[:-1]) <= 0.0):
            raise ValueError("finite theta_points must be strictly increasing")
        if np.any(tp[:-1] < 0.0):
            raise ValueError("theta_points must be nonnegative")
        if not self.quadrature_step > 0.0:
            raise ValueError(
                f"quadrature_step must be > 0, got {self.quadrature_step}")

    @staticmethod
    def uniform(state_min: float, state_max: float, state_n: int,
                theta_max: float, theta_n: int, quadrature_step: float) -> "GridSpec":
        """Uniform grids on [state_min, state_max] and [0, theta_max] + INFINITY."""
        if state_n < 2 or theta_n < 2:
            raise ValueError("state_n and theta_n must be >= 2")
        states = np.linspace(state_min, state_max, state_n)
        thetas = np.append(np.linspace(0.0, theta_max, theta_n), INFINITY)
        return GridSpec(states, thetas, quadrature_step)


@dataclass(frozen=True)
class DiscreteMDP:
    """Tabulated induced MDP on a finite grid.

    States are the grid points plus an implicit absorbing cemetery (index
    ``n_states``).  Actions are pairs (theta index, label index) flattened as
    ``q = theta_index * n_labels + label_index``, so the action order is theta
    ascending (INFINITY last) with label order breaking ties.  ``survival[q]``
    is exp(-alpha*theta), exactly 0 for the INFINITY column and exactly 1 for
    theta = 0.  Landing states are stored as two bracketing grid indices with
    convex interpolation weights; the killed mass 1 - survival goes to the
    cemetery implicitly.  All arrays are written once at construction and are
    read-only afterwards, so instances are safe to share across threads.
    """

    states: np.ndarray            # (n_states,) grid points
    theta_points: np.ndarray      # (n_thetas,) waiting times, last is INFINITY
    action_labels: tuple          # (n_labels,)
    alpha: float
    x0_index: int
    survival: np.ndarray          # (n_actions,)
    next_lo: np.ndarray           # (n_states, n_actions) int
    next_hi: np.ndarray           # (n_states, n_actions) int
    w_lo: np.ndarray              # (n_states, n_actions)
    w_hi: np.ndarray              # (n_states, n_actions)
    costs: np.ndarray             # (n_costs, n_states, n_actions)
    bounds: tuple = ()            # constraint bounds d_1..d_J
    clamped_cells: int = 0

    def __post_init__(self):
        for name in ("states", "theta_points", "survival", "next_lo", "next_hi",
                     "w_lo", "w_hi", "costs"):
            getattr(self, name).setflags(write=False)
        if len(self.bounds) != self.costs.shape[0] - 1:
            raise ValueError(
                f"expected {self.costs.shape[0] - 1} bounds, got {len(self.bounds)}")

    @property
    def n_states(self) -> int:
        return self.states.size

    @property
    def n_labels(self) -> int:
        return len(self.action_labels)

    @property
    def n_actions(self) -> int:
        return self.theta_points.size * self.n_labels

    @property
    def n_costs(self) -> int:
        return self.costs.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.n_costs - 1

    def theta_of_action(self, q) -> np.ndarray | float:
        return self.theta_points[np.asarray(q) // self.n_labels]

    def expected_next_value(self, values: np.ndarray) -> np.ndarray:
        """survival * interpolated next-state value, per (state, action).

        ``values`` is a (n_states,) array over grid states; the cemetery value
        is identically 0 so the killed mass drops out.
        """
        interp = self.w_lo * values[self.next_lo] + self.w_hi * values[self.next_hi]
        return self.survival[np.newaxis, :] * interp

    def solve_policy(self, flat: np.ndarray, rhs: np.ndarray,
                     transpose: bool = False) -> np.ndarray | None:
        """Solve (I - P) x = rhs, or (I - P^T) x = rhs, by sparse LU.

        P is the sub-stochastic state-to-state matrix of the chain that takes
        action ``flat[i]`` at grid state i (the killed mass leaves it).
        ``rhs`` may have one column per right-hand side.  Returns None when
        the system is singular (a survival-1 cycle) or the solution is not
        finite.
        """
        n = self.n_states
        rows = np.arange(n)
        s = self.survival[flat]
        P = sparse.coo_matrix(
            (np.concatenate([self.w_lo[rows, flat] * s, self.w_hi[rows, flat] * s]),
             (np.concatenate([rows, rows]),
              np.concatenate([self.next_lo[rows, flat], self.next_hi[rows, flat]]))),
            shape=(n, n)).tocsr()
        A = (sparse.eye(n, format="csc") - (P.T if transpose else P).tocsc()).tocsc()
        try:
            lu = splu(A)
        except RuntimeError:
            return None
        with np.errstate(all="ignore"):
            x = lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            return None
        return x


@dataclass(frozen=True)
class ValidationReport:
    """Report of the solvability and flow sanity checks (report-only).

    ``delta_hat`` is the smallest base impulse cost seen on the grid; the dual
    route is unsound when it is not strictly positive, since costless
    zero-wait impulse loops stop being ruled out.  ``cost_sup`` is the largest
    running rate plus largest impulse cost on the grid and must be finite.
    ``semigroup_residual`` and ``identity_residual`` measure how far the flow
    is from a semiflow on sampled (x, s, t) triples.
    """

    delta_hat: float
    cost_sup: float
    semigroup_residual: float
    identity_residual: float
    flow_tolerance: float = 1e-9

    @property
    def delta_ok(self) -> bool:
        return self.delta_hat > 0.0

    @property
    def bounded_ok(self) -> bool:
        return math.isfinite(self.cost_sup)

    @property
    def flow_ok(self) -> bool:
        return (self.semigroup_residual <= self.flow_tolerance
                and self.identity_residual <= self.flow_tolerance)

    @property
    def ok(self) -> bool:
        return self.delta_ok and self.bounded_ok and self.flow_ok

    def messages(self) -> list[str]:
        out = []
        if not self.delta_ok:
            out.append(
                f"min impulse cost on grid is {self.delta_hat!r}; a strictly positive "
                "lower bound is required for the dual route to be sound")
        if not self.bounded_ok:
            out.append("cost functions are unbounded on the grid")
        if not self.flow_ok:
            out.append(
                f"flow violates semiflow identities (semigroup residual "
                f"{self.semigroup_residual:.3e}, identity residual "
                f"{self.identity_residual:.3e})")
        return out


# ---------------------------------------------------------------------------
# evaluation of user maps


def _eval(f, *args) -> np.ndarray:
    """``f(*args)`` as a float array shaped like its broadcast array arguments.

    ``f`` is called once on the whole arrays; arguments that are not arrays
    (an action label, a scalar state) are passed through unchanged, and a 0-d
    result is broadcast.  A scalar-only map makes numpy raise TypeError or
    ValueError when it meets an array; only then is ``f`` evaluated point by
    point.  Every other exception propagates.
    """
    shape = np.broadcast_shapes(
        *(a.shape for a in args if isinstance(a, np.ndarray)))
    try:
        out = np.asarray(f(*args), dtype=float)
    except (TypeError, ValueError):
        fixed = {i for i, a in enumerate(args) if not isinstance(a, np.ndarray)}
        out = np.vectorize(f, otypes=[float], excluded=fixed)(*args)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _simpson_weights(a: float, b: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson on [a, b] with step <= ``step``."""
    span = b - a
    n = max(2, 2 * math.ceil(span / (2.0 * step)))
    tt = np.linspace(a, b, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= span / n / 3.0
    return tt, w


def _running_integral_scalar(problem: ImpulseProblem, x: float, theta: float,
                             j: int, step: float) -> float:
    """Discounted running-cost integral for one cost index at one state."""
    alpha = problem.alpha
    const = problem.constant_rate(j)
    if const is not None:
        if math.isinf(theta):
            return const / alpha
        return const * (-math.expm1(-alpha * theta)) / alpha
    if theta == 0.0:
        return 0.0
    rate = problem.gradual_costs[j]
    if math.isinf(theta):
        a, b = 0.0, _INF_HORIZON / alpha
    else:
        a, b = 0.0, theta
    tt, w = _simpson_weights(a, b, step)
    vals = _eval(rate, _eval(problem.flow, x, tt)) * np.exp(-alpha * tt)
    return float(np.dot(w, vals))


# ---------------------------------------------------------------------------
# core operations


def stage_cost(problem: ImpulseProblem, x, theta: float, a, j: int,
               step: float = 1e-3) -> float:
    """One-step cost of waiting theta at state x then applying impulse a.

    Returns the discounted running cost accumulated along the flow over
    [0, theta] plus exp(-alpha*theta) times the impulse cost at the landing
    point.  The cemetery state costs 0, and the infinite waiting time drops
    the impulse term (the running integral is then taken over [0, inf)).
    ``step`` bounds the Simpson quadrature step; constant-declared rates use
    the exact closed form instead.
    """
    if x is CEMETERY:
        return 0.0
    if not 0 <= j < problem.n_costs:
        raise ValueError(f"cost index {j} out of range")
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    alpha = problem.alpha
    total = _running_integral_scalar(problem, x, theta, j, step)
    if not math.isinf(theta):
        y = float(problem.flow(x, theta))
        total += math.exp(-alpha * theta) * float(problem.impulse_costs[j](y, a))
    if not math.isfinite(total) or total < 0.0:
        raise ValueError(
            f"non-finite or negative stage cost {total!r} at "
            f"(x={x!r}, theta={theta!r}, a={a!r}, j={j})")
    return total


def transition(problem: ImpulseProblem, x, theta: float, a):
    """Next state and survival weight of one MDP step.

    Returns ``(CEMETERY, 0.0)`` when starting at the cemetery or waiting
    forever (all mass is killed); otherwise ``(l(phi(x, theta), a),
    exp(-alpha*theta))``, the killed mass 1 - survival going to the cemetery
    implicitly.
    """
    if x is CEMETERY or math.isinf(theta):
        return CEMETERY, 0.0
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    y = float(problem.flow(x, theta))
    nxt = float(problem.reset(y, a))
    return nxt, math.exp(-problem.alpha * theta)


def _tabulate_running_integrals(problem: ImpulseProblem, grid: GridSpec) -> np.ndarray:
    """Cumulative discounted running integrals R[j, state, theta_index].

    Finite theta columns accumulate segment-wise composite Simpson between
    consecutive theta grid points (step bounded by quadrature_step); the last
    column is the infinite-wait integral over [0, 60/alpha].  Values agree
    with the single-span rule used by :func:`stage_cost` to quadrature
    accuracy, not bitwise.
    """
    xs = grid.state_points
    th_fin = grid.theta_points[:-1]
    alpha = problem.alpha
    step = grid.quadrature_step
    n, m_fin, jn = xs.size, th_fin.size, problem.n_costs
    R = np.zeros((jn, n, m_fin + 1))

    quad_js = [j for j in range(jn) if problem.constant_rate(j) is None]
    for j in range(jn):
        c = problem.constant_rate(j)
        if c is not None:
            R[j, :, :m_fin] = c * (-np.expm1(-alpha * th_fin)) / alpha
            R[j, :, m_fin] = c / alpha

    if quad_js:
        # one quadrature lattice for all finite segments, grouped by segment
        seg_nodes, seg_w, seg_starts = [], [], []
        pos = 0
        for k in range(1, m_fin):
            tt, w = _simpson_weights(th_fin[k - 1], th_fin[k], step)
            seg_nodes.append(tt)
            seg_w.append(w)
            seg_starts.append(pos)
            pos += tt.size
        if seg_starts:
            tt_all = np.concatenate(seg_nodes)
            w_all = np.concatenate(seg_w)
            flow_vals = _eval(problem.flow, xs[:, np.newaxis], tt_all[np.newaxis, :])
            disc = np.exp(-alpha * tt_all)
            for j in quad_js:
                rates = _eval(problem.gradual_costs[j], flow_vals)
                weighted = rates * (disc * w_all)[np.newaxis, :]
                seg_int = np.add.reduceat(weighted, seg_starts, axis=1)
                R[j, :, 1:m_fin] = np.cumsum(seg_int, axis=1)

        # the infinite-wait lattice has ~60/(alpha*step) nodes; chunk the
        # (states x nodes) workspace so small discount rates stay in memory
        tt_inf, w_inf = _simpson_weights(0.0, _INF_HORIZON / alpha, step)
        disc_w = np.exp(-alpha * tt_inf) * w_inf
        block = max(1, 2_000_000 // tt_inf.size)
        for start in range(0, n, block):
            stop = min(start + block, n)
            flow_inf = _eval(problem.flow, xs[start:stop, np.newaxis],
                             tt_inf[np.newaxis, :])
            for j in quad_js:
                rates = _eval(problem.gradual_costs[j], flow_inf)
                R[j, start:stop, m_fin] = rates @ disc_w
    return R


def discretize(problem: ImpulseProblem, grid: GridSpec) -> DiscreteMDP:
    """Tabulate stage costs and the transition kernel on the grid.

    Landing states get linear interpolation weights between the bracketing
    grid points; landings beyond the truncation clamp to the boundary with a
    warning.  Cost maps are evaluated eagerly here; iteration never calls
    back into user code.  Raises ValueError naming the offending cell if any
    tabulated cost is non-finite or negative.
    """
    xs = grid.state_points
    thetas = grid.theta_points
    n = xs.size
    labels = problem.actions
    L = len(labels)
    m = thetas.size
    n_actions = m * L
    jn = problem.n_costs
    alpha = problem.alpha

    i0 = int(np.argmin(np.abs(xs - problem.x0)))
    if abs(xs[i0] - problem.x0) > 0.5 * np.diff(xs).min() + 1e-12:
        raise ValueError(
            f"x0={problem.x0} is not within half a cell of the state grid "
            f"(nearest point {xs[i0]})")

    theta_of_q = np.repeat(thetas, L)
    survival = np.exp(-alpha * theta_of_q)
    survival[np.isinf(theta_of_q)] = 0.0
    finite_q = ~np.isinf(theta_of_q)
    if np.any(survival[finite_q] == 0.0):
        raise ValueError(
            "exp(-alpha*theta) underflows to 0 for a finite theta point; "
            "reduce theta_max or alpha")

    R = _tabulate_running_integrals(problem, grid)

    next_lo = np.zeros((n, n_actions), dtype=np.intp)
    next_hi = np.zeros((n, n_actions), dtype=np.intp)
    w_lo = np.ones((n, n_actions))
    w_hi = np.zeros((n, n_actions))
    # action q = k*L + a carries R[j, :, k]; the INF column keeps just that
    costs = np.repeat(R, L, axis=2)
    # (n, m, L) views of the (n, m*L) tables: [:, :-1, a] is label a at the
    # finite thetas; the INF column keeps the cemetery defaults set here
    lo_v, hi_v, wlo_v, whi_v = (t.reshape(n, m, L)
                                for t in (next_lo, next_hi, w_lo, w_hi))
    costs_v = costs.reshape(jn, n, m, L)
    clamp_tol = 1e-12 * (1.0 + xs[-1] - xs[0])
    clamped = 0

    y_flow = _eval(problem.flow, xs[:, np.newaxis], thetas[np.newaxis, :-1])
    surv_fin = survival[::L][:-1]
    for a_idx, label in enumerate(labels):
        landing = _eval(problem.reset, y_flow, label)
        clamped += int(np.sum((landing < xs[0] - clamp_tol)
                              | (landing > xs[-1] + clamp_tol)))
        landing = np.clip(landing, xs[0], xs[-1])
        hi = np.clip(np.searchsorted(xs, landing), 1, n - 1)
        lo = hi - 1
        frac = np.clip((landing - xs[lo]) / (xs[hi] - xs[lo]), 0.0, 1.0)
        lo_v[:, :-1, a_idx] = lo
        hi_v[:, :-1, a_idx] = hi
        wlo_v[:, :-1, a_idx] = 1.0 - frac
        whi_v[:, :-1, a_idx] = frac
        for j in range(jn):
            costs_v[j, :, :-1, a_idx] += surv_fin * _eval(
                problem.impulse_costs[j], y_flow, label)

    bad = ~np.isfinite(costs) | (costs < 0.0)
    if np.any(bad):
        j, i, q = np.argwhere(bad)[0]
        raise ValueError(
            f"tabulated cost is non-finite or negative at state {xs[i]} "
            f"(index {i}), theta={thetas[q // L]}, action={labels[q % L]!r}, "
            f"cost index {j}: {costs[j, i, q]!r}")

    if clamped:
        warnings.warn(
            f"{clamped} landing states fell outside the state truncation and "
            "were clamped to the boundary; enlarge the state grid if they are "
            "visited at optimum", RuntimeWarning, stacklevel=2)

    return DiscreteMDP(
        states=xs.copy(), theta_points=thetas.copy(), action_labels=tuple(labels),
        alpha=alpha, x0_index=i0, survival=survival,
        next_lo=next_lo, next_hi=next_hi, w_lo=w_lo, w_hi=w_hi, costs=costs,
        bounds=tuple(problem.bounds), clamped_cells=clamped)


def validate(problem: ImpulseProblem, grid: GridSpec,
             flow_samples: int = 12) -> ValidationReport:
    """Check solvability conditions and flow identities on the grid (report-only).

    Computes the minimum base impulse cost and the largest running/impulse
    cost over the grid, and the worst semigroup and identity residuals of the
    flow over a deterministic sample of (x, s, t) triples.
    """
    xs = grid.state_points
    sample = xs[np.unique(np.linspace(0, xs.size - 1, flow_samples).astype(int))]

    delta_hat = math.inf
    sup_rate = sup_lump = 0.0
    for j in range(problem.n_costs):
        c = problem.constant_rate(j)
        rate = c if c is not None else np.max(_eval(problem.gradual_costs[j], xs))
        sup_rate = max(sup_rate, float(rate))
        for label in problem.actions:
            lump = _eval(problem.impulse_costs[j], xs, label)
            sup_lump = max(sup_lump, float(lump.max()))
            if j == 0:
                delta_hat = min(delta_hat, float(lump.min()))
    cost_sup = sup_rate + sup_lump

    ss = np.linspace(0.0, max(grid.theta_points[-2], 1e-6), 4)
    semigroup = 0.0
    identity = 0.0
    for x in sample:
        identity = max(identity, abs(float(problem.flow(x, 0.0)) - float(x)))
        for s in ss:
            mid = float(problem.flow(x, s))
            for t in ss:
                two_step = float(problem.flow(mid, t))
                one_step = float(problem.flow(x, s + t))
                semigroup = max(semigroup, abs(two_step - one_step))

    return ValidationReport(
        delta_hat=delta_hat, cost_sup=cost_sup,
        semigroup_residual=semigroup, identity_residual=identity)


# ---------------------------------------------------------------------------
# problem construction from configuration documents


class ConfigError(ValueError):
    """Malformed problem configuration; message names the offending field."""


def fluid_problem(alpha: float, h: float, K: float, d: float,
                  action: str = "reset") -> ImpulseProblem:
    """Single-server fluid buffer: unit inflow drift, reset-to-empty impulse.

    Minimizes the discounted impulse spend (price K per impulse) subject to a
    bound d on the discounted holding cost, whose rate is h per unit of
    buffer content.
    """
    if not (h > 0.0 and K > 0.0 and d > 0.0):
        raise ConfigError(
            f"fluid model requires h > 0, K > 0, d > 0, got h={h}, K={K}, d={d}")
    return ImpulseProblem(
        flow=lambda x, t: x + t,
        reset=lambda x, a: 0.0 * x,
        gradual_costs=(lambda x: 0.0 * x, lambda x: h * x),
        impulse_costs=(lambda x, a: K + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=alpha,
        x0=0.0,
        bounds=(d,),
        actions=(action,),
        constant_rates=(0.0, None),
    )


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{path}{key}'")
    return cfg[key]


def _rate_from_spec(spec, path: str):
    """Build (rate map, constant value or None) from a cost-rate table."""
    if isinstance(spec, (int, float)):
        v = float(spec)
        return (lambda x: v + 0.0 * x), v
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"'{path}' must be a number or an object with a 'type'")
    kind = spec["type"]
    if kind == "constant":
        v = float(_require(spec, "value", path + "."))
        return (lambda x: v + 0.0 * x), v
    if kind == "polynomial":
        coeffs = np.asarray(_require(spec, "coeffs", path + "."), dtype=float)
        if coeffs.size == 0:
            raise ConfigError(f"'{path}.coeffs' must be nonempty")
        const = float(coeffs[0]) if coeffs.size == 1 else None
        rev = coeffs[::-1].copy()
        return (lambda x: np.polyval(rev, x)), const
    if kind == "piecewise_constant":
        brk = np.asarray(_require(spec, "breakpoints", path + "."), dtype=float)
        vals = np.asarray(_require(spec, "values", path + "."), dtype=float)
        if vals.size != brk.size + 1:
            raise ConfigError(
                f"'{path}.values' must have one more entry than breakpoints")
        if brk.size and np.any(np.diff(brk) <= 0.0):
            raise ConfigError(f"'{path}.breakpoints' must be strictly increasing")
        return (lambda x: vals[np.searchsorted(brk, x, side="right")]), None
    raise ConfigError(f"unknown cost-rate type '{kind}' at '{path}'")


def _impulse_from_spec(spec, actions, path: str):
    base, _ = _rate_from_spec(spec, path)
    factors = {}
    if isinstance(spec, dict):
        factors = spec.get("action_factors", {})
        for label in factors:
            if label not in actions:
                raise ConfigError(
                    f"'{path}.action_factors' names unknown action '{label}'")
    if not factors:
        return lambda x, a: base(x)
    fmap = {label: float(factors.get(label, 1.0)) for label in actions}
    return lambda x, a: fmap[a] * base(x)


def _flow_from_spec(spec, path: str):
    kind = _require(spec, "type", path + ".")
    if kind == "drift":
        c = float(_require(spec, "rate", path + "."))
        return lambda x, t: x + c * t
    if kind == "exponential_decay":
        r = float(_require(spec, "rate", path + "."))
        if r < 0.0:
            raise ConfigError(f"'{path}.rate' must be >= 0 for exponential_decay")
        return lambda x, t: x * np.exp(-r * t)
    raise ConfigError(f"unknown flow type '{kind}' at '{path}'")


def _reset_from_spec(spec, path: str):
    kind = _require(spec, "type", path + ".")
    if kind == "constant":
        v = float(_require(spec, "value", path + "."))
        return lambda x, a: v + 0.0 * x
    if kind == "scale":
        s = float(_require(spec, "factor", path + "."))
        return lambda x, a: s * x
    raise ConfigError(f"unknown reset type '{kind}' at '{path}'")


def grid_from_config(cfg: dict) -> GridSpec:
    g = _require(cfg, "grid", "")
    try:
        return GridSpec.uniform(
            state_min=float(_require(g, "state_min", "grid.")),
            state_max=float(_require(g, "state_max", "grid.")),
            state_n=int(_require(g, "state_n", "grid.")),
            theta_max=float(_require(g, "theta_max", "grid.")),
            theta_n=int(_require(g, "theta_n", "grid.")),
            quadrature_step=float(_require(g, "quadrature_step", "grid.")),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def problem_from_config(cfg: dict) -> tuple[ImpulseProblem, GridSpec]:
    """Build a problem and grid from a parsed configuration document.

    The document has ``model`` ("fluid" or "custom"), ``alpha``, ``x0``,
    ``grid`` and, for the fluid model, ``h``, ``K``, ``d``.  Custom models
    supply ``flow``, ``reset``, ``actions``, ``bounds`` and per-cost
    ``gradual_costs`` / ``impulse_costs`` tables (constant, polynomial or
    piecewise_constant).
    """
    model = _require(cfg, "model", "")
    grid = grid_from_config(cfg)
    try:
        alpha = float(_require(cfg, "alpha", ""))
        if model == "fluid":
            prob = fluid_problem(
                alpha=alpha,
                h=float(_require(cfg, "h", "")),
                K=float(_require(cfg, "K", "")),
                d=float(_require(cfg, "d", "")),
            )
            if "x0" in cfg and float(cfg["x0"]) != 0.0:
                prob = replace(prob, x0=float(cfg["x0"]))
            return prob, grid
        if model == "custom":
            actions = tuple(_require(cfg, "actions", ""))
            if not actions:
                raise ConfigError("'actions' must be nonempty")
            bounds = tuple(float(d) for d in _require(cfg, "bounds", ""))
            g_specs = _require(cfg, "gradual_costs", "")
            i_specs = _require(cfg, "impulse_costs", "")
            if len(g_specs) != len(bounds) + 1 or len(i_specs) != len(bounds) + 1:
                raise ConfigError(
                    "gradual_costs and impulse_costs must each have "
                    f"{len(bounds) + 1} entries for {len(bounds)} bounds")
            rates, consts = [], []
            for j, spec in enumerate(g_specs):
                r, c = _rate_from_spec(spec, f"gradual_costs[{j}]")
                rates.append(r)
                consts.append(c)
            lumps = [_impulse_from_spec(spec, actions, f"impulse_costs[{j}]")
                     for j, spec in enumerate(i_specs)]
            prob = ImpulseProblem(
                flow=_flow_from_spec(_require(cfg, "flow", ""), "flow"),
                reset=_reset_from_spec(_require(cfg, "reset", ""), "reset"),
                gradual_costs=tuple(rates),
                impulse_costs=tuple(lumps),
                alpha=alpha,
                x0=float(cfg.get("x0", 0.0)),
                bounds=bounds,
                actions=actions,
                constant_rates=tuple(consts),
            )
            return prob, grid
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown model '{model}' (expected 'fluid' or 'custom')")
