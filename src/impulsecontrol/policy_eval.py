"""Exact evaluation of stationary policies, mixtures and occupation measures.

Two deliberately independent evaluation paths are kept for cross-validation:
one walk of the grid trajectory, which sums the geometric series of the
cycle it ends in (exact when landings hit grid points), and a linear solve
of the interpolated fixed-point system (``DiscreteMDP.solve_policy``; used
when a landing splits between grid points, and for occupation measures).
A third, grid-free oracle integrates the continuous-time cost sum of a
decision rule directly along the true flow.  An occupation measure holds
only the (state, action) cells it charges, n of them for a deterministic
policy, and its balance check reads the landing pairs of those cells
alone, so neither allocates a (states x actions) table.  All operations
are pure functions of immutable inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .model import DiscreteMDP, ImpulseProblem, label_names, stage_cost
from .bellman import StationaryPolicy


@dataclass(frozen=True, eq=False)
class CostVector:
    """Discounted total cost per cost index; +inf entries mark divergence."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "v", v)
        if np.any(np.isnan(v)) or np.any(v < 0.0):
            raise ValueError(f"cost vector entries must be >= 0, got {v}")

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.v)))


@dataclass(frozen=True, eq=False)
class OccupationMeasure:
    """Expected discounted visit counts on the (grid state, action) cells charged.

    ``cells`` are strictly increasing flat indices ``i * n_actions + q`` into
    a (n_states, n_actions) table of the given ``shape``, and ``values`` their
    masses; every other cell has mass 0.  ``mass`` builds that dense table on
    demand.
    """

    cells: np.ndarray  # (n_charged,) flat cell indices, increasing
    values: np.ndarray  # (n_charged,)
    shape: tuple  # (n_states, n_actions)
    total: float

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        shape = tuple(int(s) for s in self.shape)
        if (cells.ndim != 1 or values.shape != cells.shape or len(shape) != 2
                or np.any(np.diff(cells) <= 0) or np.any(cells[:1] < 0)
                or np.any(cells[-1:] >= shape[0] * shape[1])):
            raise ValueError(
                "occupation measure cells must be increasing flat indices into "
                f"a {shape} table, one value each")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shape", shape)

    @property
    def mass(self) -> np.ndarray:
        """The dense (n_states, n_actions) table, built on each call."""
        out = np.zeros(self.shape)
        out.reshape(-1)[self.cells] = self.values
        return out

    @property
    def state_marginal(self) -> np.ndarray:
        return np.bincount(self.cells // self.shape[1], weights=self.values,
                           minlength=self.shape[0])


@dataclass(frozen=True)
class MixedPolicy:
    """Convex mixture of deterministic stationary policies."""

    weights: tuple
    policies: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.policies):
            raise ValueError("weights and policies must have equal length")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0.0) or np.any(w > 1.0):
            raise ValueError(f"mixture weights must lie in (0, 1], got {w}")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got sum {w.sum()!r}")


def _walk(mdp: DiscreteMDP, f: StationaryPolicy):
    """Follow the heavier landing from x0 until the mass dies or a state repeats.

    Returns the running discounted totals and discount, each visited state's
    (totals, disc) at first entry in visit order, the states of the closing
    cycle (none if the mass died) and whether a surviving landing split.
    """
    totals = np.zeros(mdp.n_costs)
    disc = 1.0
    entries: dict[int, tuple] = {}
    split = False
    idx = mdp.x0_index
    while idx not in entries:
        entries[idx] = (totals.copy(), disc)
        q = int(f.flat[idx])
        s = mdp.survival[q]
        hi = mdp.w_hi[idx, q] > mdp.w_lo[idx, q]  # ties go low
        w = (mdp.w_hi if hi else mdp.w_lo)[idx, q]
        nxt = int((mdp.next_hi if hi else mdp.next_lo)[idx, q])
        totals += disc * mdp.costs[:, idx, q]
        disc *= s
        if s == 0.0:
            return totals, disc, entries, [], split
        split |= w < 1.0 - 1e-12
        idx = nxt
    path = list(entries)
    return totals, disc, entries, path[path.index(idx):], split


def _trapped_cycles(mdp: DiscreteMDP, f: StationaryPolicy) -> np.ndarray:
    """Grid states on the survival-1 cycles of the chain of ``f``.

    A state is trapped when its action survives with weight exactly 1 and
    no chain of positive-weight landings from it reaches a state whose step
    kills mass.  I - P_f is singular exactly when some state is, so this
    reads the policy itself, not the pivots of a solve.  Of the trapped
    states, those that trapped states keep landing on form the cycles;
    the states that only feed them are left out.
    """
    rows = np.arange(mdp.n_states)
    lo, hi = mdp.next_lo[rows, f.flat], mdp.next_hi[rows, f.flat]
    to_lo, to_hi = mdp.w_lo[rows, f.flat] > 0.0, mdp.w_hi[rows, f.flat] > 0.0
    trapped = mdp.survival[f.flat] == 1.0
    while True:  # drop the states with a landing outside the set
        escapes = trapped & ((to_lo & ~trapped[lo]) | (to_hi & ~trapped[hi]))
        if not escapes.any():
            break
        trapped &= ~escapes
    while True:  # then the states no state of the set lands on
        landed = np.zeros_like(trapped)
        landed[lo[trapped & to_lo]] = landed[hi[trapped & to_hi]] = True
        if not (trapped & ~landed).any():
            return rows[trapped]
        trapped &= landed


def _cycle_error(what: str, states) -> ValueError:
    states = [int(i) for i in states]
    more = f" ({len(states)} states)" if len(states) > 6 else ""
    return ValueError(
        f"{what}: the policy induces a survival-1 cycle through grid state "
        f"indices {reprlib.repr(states)}{more}")


def eval_policy(mdp: DiscreteMDP, f: StationaryPolicy) -> CostVector:
    """Cost vector of a deterministic stationary policy from the initial state.

    A revisited state closes a cycle: its cost (totals now minus totals at
    entry) repeats with ratio rho (discount now over discount at entry), and
    the geometric tail is added in closed form.  A cycle with rho = 1 (all
    zero waits) is +inf on every index it accrues.  If a visited landing
    splits between two grid points, the interpolated fixed-point system is
    solved instead; when the policy keeps mass in a survival-1 cycle
    (:func:`_trapped_cycles`), which makes that system singular,
    ValueError names the cycle's grid states before any solve.
    """
    if f.n_states != mdp.n_states:
        raise ValueError("policy does not match the MDP state grid")
    totals, disc, entries, cycle_states, split = _walk(mdp, f)
    if split:
        cycles = _trapped_cycles(mdp, f)
        c = mdp.costs[:, np.arange(mdp.n_states), f.flat]  # (n_costs, n)
        V = None if cycles.size else mdp.solve_policy(f.flat, c.T)
        if V is None:
            raise _cycle_error("policy evaluation system is singular",
                               cycles if cycles.size
                               else cycle_states or list(entries))
        return CostVector(V[mdp.x0_index, :])
    if cycle_states:
        at_entry, disc_at_entry = entries[cycle_states[0]]
        # an underflowed prefix discount leaves nothing for the tail
        rho = disc / disc_at_entry if disc_at_entry > 0.0 else 0.0
        if rho >= 1.0:
            # read the costs themselves: a large prefix total can absorb them
            c = mdp.costs[:, cycle_states, f.flat[cycle_states]]
            totals = totals + np.where(c.sum(axis=1) > 0.0, math.inf, 0.0)
        else:
            totals = totals + (totals - at_entry) * (rho / (1.0 - rho))
    return CostVector(totals)


def occupation_measure(mdp: DiscreteMDP, f: StationaryPolicy) -> OccupationMeasure:
    """Occupation measure of a stationary policy by one direct linear solve.

    Solves mu = delta_x0 + Q_f^T mu on the grid.  The measure charges the
    policy's cell (i, f(i)) of every grid state i and nothing else, so it
    holds n cells.  Raises ValueError naming the cycle's states, before any
    solve, if the policy keeps mass in a survival-1 cycle (the system is
    singular and the measure not finite), and naming the walk's states if
    the solve fails otherwise.
    """
    n = mdp.n_states
    cycles = _trapped_cycles(mdp, f)
    e0 = np.zeros(n)
    e0[mdp.x0_index] = 1.0
    m = None if cycles.size else mdp.solve_policy(f.flat, e0, transpose=True)
    if m is None or np.any(m < -1e-9):
        if not cycles.size:
            _, _, entries, cyc, _ = _walk(mdp, f)
            cycles = cyc or list(entries)
        raise _cycle_error("occupation measure is not finite", cycles)
    m = np.maximum(m, 0.0)
    return OccupationMeasure(cells=np.arange(n) * mdp.n_actions + f.flat,
                             values=m, shape=(n, mdp.n_actions),
                             total=float(m.sum()))


def check_characteristic(mdp: DiscreteMDP, mu: OccupationMeasure) -> float:
    """Sup-norm residual of the occupation-measure balance equation.

    Evaluates |mu(x, all actions) - delta_x0(x) - inflow(x)| over grid
    states, where inflow aggregates survival-weighted interpolation mass from
    the cells the measure charges: the landing pair of each such cell,
    accumulated in cell order, lower landing first.  These are the products
    the transposed kernel applied to the dense surviving mass adds, in the
    same order, without the zero ones, so the inflow is bitwise that
    product.  So is the residual when no state has more than two charged
    cells; a dense row sum may group three or more differently.  The
    balance equation does not depend on the policy.
    """
    out = mu.state_marginal
    out[mdp.x0_index] -= 1.0
    states, actions = np.divmod(mu.cells, mdp.n_actions)
    surviving = mdp.survival[actions] * mu.values
    cols = mdp.next_states[states, actions]
    terms = mdp.next_weights[states, actions] * surviving[:, np.newaxis]
    inflow = np.bincount(cols.ravel(), weights=terms.ravel(),
                         minlength=mdp.n_states)
    return float(np.max(np.abs(out - inflow)))


def eval_mixture(mdp: DiscreteMDP, m: MixedPolicy) -> CostVector:
    """Weighted sum of the component cost vectors (mixtures are linear)."""
    total = np.zeros(mdp.n_costs)
    for w, f in zip(m.weights, m.policies):
        total = total + w * eval_policy(mdp, f).v
    return CostVector(total)


# ---------------------------------------------------------------------------
# grid-free trajectory oracle


def threshold_rule(problem: ImpulseProblem, xbar: float):
    """Decision rule 'wait max(xbar - x, 0) then impulse' (never, if xbar=inf).

    The impulse takes the problem's first action.
    """
    label = problem.actions[0]

    def rule(x: float):
        return max(xbar - x, 0.0), label

    return rule


def policy_rule(mdp: DiscreteMDP, f: StationaryPolicy):
    """Decision rule reading a grid policy table at the nearest grid state."""

    def rule(x: float):
        i = int(np.argmin(np.abs(mdp.states - x)))
        t_idx, a_idx = divmod(int(f.flat[i]), mdp.n_labels)
        return float(mdp.theta_points[t_idx]), mdp.action_labels[a_idx]

    return rule


def simulate_oracle(problem: ImpulseProblem, rule, horizon: int,
                    step: float = 1e-3) -> CostVector:
    """Continuous-time cost of a decision rule, evaluated along the true flow.

    ``rule`` maps a state x to (theta, action), as :func:`threshold_rule`
    and :func:`policy_rule` build.  Sums impulse-by-impulse the discounted
    stage costs of the original problem (impulse times t_i, discount
    exp(-alpha*t_i), running integrals along the flow with no grid
    involved), truncated after ``horizon`` impulses.  Truncation stops early
    once the remaining discount factor cannot contribute above double
    precision; for agreement checks pick the horizon so that
    exp(-alpha*t_N) times the cost scale is below the target tolerance.

    A step whose (x, theta, action) was already integrated reuses its stage
    costs (so action labels must be hashable): a rule that returns to a
    state, as a constant reset does every cycle, integrates each distinct
    step once.  The totals are summed in the same order either way.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    totals = np.zeros(problem.n_costs)
    x = problem.x0
    t = 0.0
    alpha = problem.alpha
    integrated = {}
    for _ in range(horizon):
        disc = math.exp(-alpha * t)
        if disc < 1e-18:
            break
        theta, a = rule(x)
        costs = integrated.get((x, theta, a))
        if costs is None:
            costs = integrated[x, theta, a] = [
                stage_cost(problem, x, theta, a, j, step=step)
                for j in range(problem.n_costs)]
        for j, c in enumerate(costs):
            totals[j] += disc * c
        if math.isinf(theta):
            break
        t += theta
        x = float(problem.reset(float(problem.flow(x, theta)), a))
    return CostVector(totals)


# ---------------------------------------------------------------------------
# policy table serialization (CLI `eval` interface)


def policy_to_table(mdp: DiscreteMDP, f: StationaryPolicy) -> str:
    """Serialize a policy as text rows: grid state, theta or INF, action label."""
    lines = ["# state theta action"]
    names = label_names(mdp.action_labels)
    for i, (t_idx, a_idx) in enumerate(f.choice):
        theta = float(mdp.theta_points[t_idx])
        theta_s = "INF" if math.isinf(theta) else repr(theta)
        lines.append(f"{float(mdp.states[i])!r} {theta_s} {names[a_idx]}")
    return "\n".join(lines) + "\n"


def policy_from_table(mdp: DiscreteMDP, text: str) -> StationaryPolicy:
    """Parse a policy table; every grid state must get exactly one row.

    Rows are whitespace separated: state, theta (or INF), and an optional
    action label as ``str`` prints it (defaults to the first action).
    States and waiting times must match grid points within 1e-6 relative
    (NaN and -inf match nothing), and a second row for the same grid state
    is an error.
    """
    flat = np.full(mdp.n_states, -1, dtype=np.intp)
    finite_thetas = mdp.theta_points[:-1]
    names = label_names(mdp.action_labels)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"policy table line {ln}: expected 2 or 3 fields")
        x = float(parts[0])
        i = int(np.argmin(np.abs(mdp.states - x)))
        if not (math.isfinite(x) and abs(mdp.states[i] - x) <= 1e-6 * (1.0 + abs(x))):
            raise ValueError(
                f"policy table line {ln}: state {x} is not a grid point")
        if flat[i] >= 0:
            raise ValueError(
                f"policy table line {ln}: second row for grid state {mdp.states[i]}")
        theta = float(parts[1])  # reads INF, inf, Infinity and +inf alike
        if theta == math.inf:
            t_idx = mdp.theta_points.size - 1
        else:
            t_idx = int(np.argmin(np.abs(finite_thetas - theta)))
            if not (math.isfinite(theta) and abs(finite_thetas[t_idx] - theta)
                    <= 1e-6 * (1.0 + abs(theta))):
                raise ValueError(
                    f"policy table line {ln}: theta {theta} is not on the grid")
        name = parts[2] if len(parts) == 3 else names[0]
        if name not in names:
            raise ValueError(f"policy table line {ln}: unknown action '{name}'")
        a_idx = names.index(name)
        flat[i] = t_idx * mdp.n_labels + a_idx
    if np.any(flat < 0):
        missing = int(np.argmax(flat < 0))
        raise ValueError(
            f"policy table is missing a row for grid state {mdp.states[missing]}")
    return StationaryPolicy(flat, mdp.n_labels)
