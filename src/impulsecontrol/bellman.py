"""Bellman solver for the multiplier-modified unconstrained problem.

For a fixed nonnegative multiplier vector g the combined one-step cost is
cost_0 + sum_j g_j cost_j, and the value function solves

    W(x) = min over actions (theta, a) of
           combined_cost(x, (theta, a)) + survival * W(next state),

the killed mass 1 - survival carrying no further cost.  Two solvers are kept.

Howard's policy iteration (:func:`policy_iteration`, Howard 1960; Puterman
1994, section 6.4) is the kernel of every dual evaluation: each step
evaluates a policy exactly by one linear solve
(``DiscreteMDP.solve_policy``: a small dense one on the landing states
when every state lands where state 0 does, a sparse LU otherwise) and
improves it greedily, so it needs a handful of steps where value iteration needs about
1/(alpha * mean wait) sweeps, and it can start from the policy of a nearby
multiplier.

Successive approximation from W = 0 (:func:`solve_W`) is the checked
reference.  It produces pointwise nondecreasing iterates (all quantities are
nonnegative and the backup is monotone, exactly so in floating point), which
doubles as a runtime sanity check: any decrease raises.  The same
monotonicity makes its action elimination exact (MacQueen 1967; Puterman
1994, section 6.7).  Once the sup change shrinks geometrically, each state x
keeps only the cells whose Q is within the changes' geometric tail of its
minimum, below a cut(x).  Every cell's Q is nondecreasing from sweep to
sweep, so a dropped cell stays above cut(x), and while a state's kept
minimum is at most cut(x) it is the minimum over all its cells, at the same
smallest-index minimizer; a sweep on which some state's kept minimum
exceeds cut(x) is a full one.  Every state's value is still computed on
every sweep, and the iterates, trace and policy are bitwise those of full
sweeps.

Every Bellman table goes through one pass, :func:`_reduce`: Q = survival
* (w_lo W[next_lo] + w_hi W[next_hi]) + cost, made and reduced in chunks
of ``_BLOCK_ELEMENTS // n_actions`` rows (81 at 800 x 801), so no full Q
table is written and read back.  Each chunk gives its rows' smallest-index
minimizers and minima, Q at a given action, and the cells within a margin
of the minimum; a sweep (:func:`_sweep`, which both solvers use), value
iteration's choice of the cells it keeps and :func:`argmin_set` are
reductions of that pass.  Under a constant reset every state lands where
state 0 does (``DiscreteMDP.landing_states`` is not None), so state 0's
row of Q is formed once from its landing pairs and added to each chunk's
cost rows in one reused buffer that stays in cache; the policy solve reads
the same pairs.  Otherwise each chunk is a CSR view of its states' landing
pairs (``DiscreteMDP.sweep_blocks``) times W.  A sweep is a Jacobi update,
every row reading only the previous iterate, so the chunks are independent
(Bertsekas & Tsitsiklis, *Parallel and Distributed Computation*, 1989,
section 1.2): on a large state-dependent table they split into one
contiguous run per usable core, the calling thread reducing the first and
a shared thread pool the others, and the caller takes back any run the
pool has not started by the time it is done.  Each cell is computed by the
same operations in the same order on every path, so the results are
bitwise independent of the chunks and of the core count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import _SWEEP_SPLIT_CELLS, DiscreteMDP, _usable_cores


@dataclass(frozen=True)
class StationaryPolicy:
    """Deterministic stationary strategy: one flattened action per grid state.

    ``flat[i]`` is the action index q = theta_index * n_labels + label_index
    (theta major, label minor, as in :class:`DiscreteMDP`).
    """

    flat: np.ndarray  # (n_states,) int
    n_labels: int

    def __post_init__(self):
        object.__setattr__(self, "flat", np.asarray(self.flat, dtype=np.intp))

    @property
    def choice(self) -> np.ndarray:
        """(theta index, label index) per state, shape (n_states, 2)."""
        return np.stack(np.divmod(self.flat, self.n_labels), axis=1)

    @property
    def n_states(self) -> int:
        return self.flat.size

    def __eq__(self, other) -> bool:
        return (isinstance(other, StationaryPolicy)
                and self.n_labels == other.n_labels
                and np.array_equal(self.flat, other.flat))

    def __hash__(self) -> int:
        return hash((self.n_labels, self.flat.tobytes()))


@dataclass(frozen=True)
class BellmanConfig:
    """Stopping parameters of the Bellman solvers.

    For value iteration ``tolerance`` is the sup-norm change threshold and
    ``max_iterations`` caps the number of sweeps.  Policy iteration switches
    a state's action only where that gains more than
    ``tolerance * (1 + |W|)``, and ``max_iterations`` caps its steps.  These
    two values are the only settings of the constrained solve; its stopping
    gap scales with ``tolerance``.
    """

    tolerance: float = 1e-9
    max_iterations: int = 100_000

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class BellmanSolution:
    """Value function with its policy and per-iteration (or per-step) trace.

    ``V`` holds, for a policy-iteration solution, the policy's per-cost
    values V_j(policy) at every grid state (column j for cost j), so that
    W = V @ (1, g); it is None for value iteration.  Solutions compare by
    identity.
    """

    W: np.ndarray  # (n_states,) values at the grid states
    policy: StationaryPolicy
    iterations: int
    converged: bool
    residual: float
    trace: tuple  # (iteration, sup-norm change) pairs
    V: np.ndarray | None = None  # (n_states, n_costs) policy values


def _check_multipliers(mdp: DiscreteMDP, g) -> np.ndarray:
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.size != mdp.n_constraints:
        raise ValueError(
            f"expected {mdp.n_constraints} multipliers, got {g.size}")
    if not np.all(g >= 0.0):
        raise ValueError(f"multipliers must be nonnegative, got {g}")
    return g


def combined_cost(mdp: DiscreteMDP, g) -> np.ndarray:
    """cost_0 + sum_j g_j cost_j as a fresh (n_states, n_actions) table.

    Terms with g_j = 0 are skipped.  The first other term is scaled straight
    into the output, so a single constraint needs no temporary table.
    """
    g = _check_multipliers(mdp, g)
    terms = [(gj, mdp.costs[1 + j]) for j, gj in enumerate(g) if gj != 0.0]
    if not terms:
        return mdp.costs[0].copy()
    (g1, cost1), *rest = terms
    out = g1 * cost1
    out += mdp.costs[0]
    for gj, cost in rest:
        out += gj * cost
    return out


_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The sweep thread pool, made on first use: one worker per core but one."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(1, _usable_cores() - 1),
                                       thread_name_prefix="bellman-sweep")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _q_row(mdp: DiscreteMDP, W: np.ndarray) -> np.ndarray:
    """State 0's survival * (w_lo W[lo] + w_hi W[hi]): every state's, if
    the kernel is state-free."""
    q = mdp.w_lo[0] * W.take(mdp.next_lo[0])
    q += mdp.w_hi[0] * W.take(mdp.next_hi[0])
    q *= mdp.survival
    return q


def _reduce(mdp: DiscreteMDP, W: np.ndarray, cost: np.ndarray,
            flat: np.ndarray | None = None, margin=None,
            cap: float = math.inf) -> tuple:
    """One pass over Q = survival * (w_lo W[next_lo] + w_hi W[next_hi]) +
    ``cost`` in the row chunks of ``mdp.sweep_blocks``, each made and
    reduced before the next is made.

    Returns per state the smallest-index minimizer of Q and its minimum,
    Q at action ``flat`` (None when ``flat`` is None), and, given a
    ``margin`` (a scalar or one per state), the (states, actions) of the
    cells with Q <= minimum + margin in flat order; None when there are
    more than ``cap`` of them, which stops their collection early.  A
    state-free chunk is state 0's row of Q added to its cost rows in one
    reused buffer (it rounds as the CSR row, whose sum starts at an exact
    0); any other is its CSR view times W, times survival, plus its cost
    rows.  On a state-dependent table of at least ``_SWEEP_SPLIT_CELLS``
    cells the calling thread reduces the first run of chunks while the pool
    takes the others, then takes back and reduces itself every run no
    worker has started, so a worker that is slow to wake costs at most the
    serial pass.  No pool task waits on another, so concurrent callers
    cannot deadlock.
    """
    n, n_actions = cost.shape
    if margin is not None:
        margin = np.broadcast_to(margin, (n,))
    chunks = mdp.sweep_blocks
    if mdp.landing_states is not None:
        q_row = _q_row(mdp, W)
        # one buffer of the first chunk's rows, when there is more than one
        buf = np.empty((chunks[0][1], n_actions)) if len(chunks) > 1 else None

    def run(part):  # -> per chunk (minimizers, minima, Q at flat, cells)
        out, count = [], 0
        for lo, hi, kernel in part:
            if kernel is None:
                q = np.add(cost[lo:hi], q_row,
                           out=None if buf is None else buf[:hi - lo])
            else:
                q = (kernel @ W).reshape(hi - lo, n_actions)
                q *= mdp.survival
                q += cost[lo:hi]
            rows = np.arange(hi - lo)
            best = q.argmin(axis=1)
            low = q[rows, best]
            cells = None
            if margin is not None and count <= cap:
                cells = np.flatnonzero(q <= (low + margin[lo:hi])[:, None])
                cells += lo * n_actions
                count += cells.size
            at_flat = None if flat is None else q[rows, flat[lo:hi]]
            out.append((best, low, at_flat, cells))
            del q  # before the next chunk's product is made
        return out

    if mdp.landing_states is not None or cost.size < _SWEEP_SPLIT_CELLS:
        parts = run(chunks)
    else:
        k, m = min(_usable_cores(), len(chunks)), len(chunks)
        first, *rest = [chunks[m * r // k:m * (r + 1) // k] for r in range(k)]
        pool = _executor()
        futures = [pool.submit(run, part) for part in rest]
        done = [run(first)]
        done += [run(part) if f.cancel() else f
                 for f, part in zip(futures, rest)]
        parts = [chunk for d in done
                 for chunk in (d if isinstance(d, list) else d.result())]
    if len(parts) == 1:  # no copies: the search's sweeps on R are this case
        (best, low, at_flat, _), = parts
    else:
        best, low, at_flat = (None if col[0] is None else np.concatenate(col)
                              for col in list(zip(*parts))[:3])
    kept = None
    if margin is not None and all(cells is not None for *_, cells in parts):
        near = np.concatenate([cells for *_, cells in parts])
        if near.size <= cap:
            kept = np.divmod(near, n_actions)
    return best, low, at_flat, kept


def _sweep(mdp: DiscreteMDP, W: np.ndarray, cost: np.ndarray,
           flat: np.ndarray | None = None) -> tuple:
    """One Bellman sweep of W under the (n_states, n_actions) table ``cost``.

    Returns per state the smallest-index minimizer of
    Q = survival * (w_lo W[next_lo] + w_hi W[next_hi]) + cost, its Q value,
    and the Q value of action ``flat`` (None when ``flat`` is None), from
    one chunked pass over Q (:func:`_reduce`).  Each cell goes through the
    same operations whatever the chunks and the core count, so the results
    are bitwise those of one full Q table.
    """
    return _reduce(mdp, W, cost, flat)[:3]


# value iteration sweeps only the cells near their row minimum once the sup
# change shrinks by _SHRINK a sweep, while they are at most 1/_KEPT_SHARE of
# the table
_SHRINK = 0.9
_KEPT_SHARE = 32


def _tail_margin(prev: float, last: float) -> float | None:
    """last * r / (1 - r), r = last / prev: the rise still ahead were the sup
    changes to shrink geometrically.  None when r exceeds ``_SHRINK``."""
    r = last / prev
    return last * r / (1.0 - r) if r <= _SHRINK else None


def _kept_sweep(mdp, W, cost, kept, margin):
    """(minimizers, minima, cells kept after) of a sweep over the cells
    ``kept`` = (states, actions, cut per state) holds, in flat order, each
    Q rounded as in :func:`_reduce`.  When a state's kept minimum exceeds
    its cut, the sweep is one full pass and the cells are chosen afresh on
    the next sweep (None); otherwise each state keeps its cells within
    min(cut, minimum + ``margin``)."""
    row, act, cut = kept
    if mdp.landing_states is not None:
        q = cost[row, act] + _q_row(mdp, W)[act]
    else:  # as the CSR row, from an exact 0
        q = W.take(mdp.next_lo[row, act]) * mdp.w_lo[row, act]
        q += W.take(mdp.next_hi[row, act]) * mdp.w_hi[row, act]
        q *= mdp.survival[act]
        q += cost[row, act]
    starts = np.searchsorted(row, np.arange(cut.size))
    low = np.minimum.reduceat(q, starts)
    if np.any(low > cut):
        return _reduce(mdp, W, cost)[:2] + (None,)
    at = np.where(q == low[row], np.arange(q.size), q.size)
    best = act[np.minimum.reduceat(at, starts)]
    cut = np.minimum(cut, low + margin)
    keep = q <= cut[row]
    return best, low, (row[keep], act[keep], cut)


def solve_W(mdp: DiscreteMDP, g, cfg: BellmanConfig = BellmanConfig(),
            on_iterate=None) -> BellmanSolution:
    """Successive approximation from W = 0 until the sup-norm change is small.

    Returns the last iterate with its greedy policy: the last sweep's
    minimizers when that sweep changed nothing, else one more sweep's.
    Iterates are pointwise nondecreasing; any decrease raises RuntimeError
    since it indicates corrupted inputs.  When max_iterations is hit with
    the change still above tolerance the solution is returned flagged
    ``converged=False`` (the backup is not a uniform contraction when
    zero-wait actions survive with weight 1; positive impulse costs make
    such loops non-optimal, and this flag guards pathological inputs).
    ``on_iterate(k, W_k)`` is called with each new iterate when given.

    Once the sup change shrinks by r <= ``_SHRINK`` a sweep, each state x
    keeps the cells with Q <= cut(x), its minimum plus the changes'
    geometric tail (:func:`_tail_margin`), and later sweeps, the greedy one
    too, make Q on those alone.  Each cell's Q is nondecreasing, so a
    dropped cell stays above cut(x); a sweep on which some state's kept
    minimum exceeds cut(x) is a full one.  Results are bitwise those of full
    sweeps.  A try at choosing the cells that finds more than
    1/``_KEPT_SHARE`` of the table stops collecting them and finishes as a
    full sweep, so no sweep passes over the table twice.
    """
    cost = combined_cost(mdp, g)
    W = np.zeros(mdp.n_states)
    sup_change = math.inf
    trace = []
    iterations = 0
    kept = None
    # under one kept cell per state the elimination can never start
    cap = cost.size // _KEPT_SHARE
    fits = cap >= mdp.n_states

    def sweep(W):  # -> (minimizers, minima); eliminates once changes shrink
        nonlocal kept
        margin = (_tail_margin(trace[-2][1], trace[-1][1])
                  if fits and len(trace) > 1 else None)
        if margin is None:
            kept = None
            return _sweep(mdp, W, cost)[:2]
        if kept is not None:
            best, low, kept = _kept_sweep(mdp, W, cost, kept, margin)
            return best, low
        best, low, _, cells = _reduce(mdp, W, cost, margin=margin, cap=cap)
        kept = None if cells is None else (*cells, low + margin)
        return best, low

    if on_iterate is not None:
        on_iterate(0, W.copy())
    for k in range(1, cfg.max_iterations + 1):
        best, W_new = sweep(W)
        if np.any(W_new < W):
            i = int(np.argmax(W - W_new))
            raise RuntimeError(
                f"value iteration decreased at state index {i} "
                f"({W[i]!r} -> {W_new[i]!r}); inputs are inconsistent")
        sup_change = float(np.max(W_new - W))
        iterations = k
        trace.append((k, sup_change))
        W = W_new
        if on_iterate is not None:
            on_iterate(k, W.copy())
        if sup_change <= cfg.tolerance:
            break
    converged = sup_change <= cfg.tolerance
    if sup_change != 0.0:
        best, _ = sweep(W)
    return BellmanSolution(
        W=W, policy=StationaryPolicy(best, mdp.n_labels),
        iterations=iterations, converged=converged, residual=sup_change,
        trace=tuple(trace))


def policy_iteration(mdp: DiscreteMDP, g, cfg: BellmanConfig = BellmanConfig(),
                     start: StationaryPolicy | BellmanSolution | None = None
                     ) -> BellmanSolution:
    """Howard's policy iteration from ``start`` (default: never impulse).

    Each step solves V_j = c_j,f + P_f V_j for the current policy f and
    every cost j in one linear solve (``DiscreteMDP.solve_policy``), sets
    W = V @ (1, g), then switches
    a state to its smallest-index Q minimizer only where that beats the
    current action by more than ``tolerance * (1 + |W|)``, so round-off
    cannot cycle between tied actions.  It stops when no state
    switches; after ``max_iterations`` steps it returns the last evaluated
    policy flagged ``converged=False``.

    The never-impulse start kills all mass in one step, so it is proper (no
    survival-1 cycle).  With positive impulse costs a zero-wait loop never
    improves on a proper policy, so every step stays proper whatever g is,
    and the policy of any other multiplier is a safe start.  The returned
    policy is the evaluated, stable one and W is exactly its value, so its
    cut is exact; a fresh argmin of the final Q table could pick a costlier
    tied action.  ``trace`` holds (step, Bellman residual) pairs, the
    residual being sup |min_a Q - W| for that step's policy.

    V depends on the policy alone, not on g, and the returned solution
    carries it.  A start given as an earlier solution of the same MDP takes
    its first step from that V without a linear solve, so W, the policies
    and the trace are bitwise those of a start from the bare policy.
    """
    g = _check_multipliers(mdp, g)
    weights = np.concatenate(([1.0], g))
    cost = combined_cost(mdp, g)
    rows = np.arange(mdp.n_states)
    V = None
    if isinstance(start, BellmanSolution):
        V = start.V
        start = start.policy
    if start is None:
        flat = np.full(mdp.n_states, mdp.n_actions - mdp.n_labels, dtype=np.intp)
    elif start.n_states != mdp.n_states:
        raise ValueError("start policy does not match the MDP state grid")
    else:
        flat = start.flat
    trace = []
    for k in range(1, cfg.max_iterations + 1):
        if V is None:
            V = mdp.solve_policy(flat, mdp.costs[:, rows, flat].T)
            if V is None:
                raise RuntimeError(
                    f"policy iteration step {k} met a survival-1 cycle; "
                    "impulse costs must be positive")
        W = V @ weights
        best, q_best, q_flat = _sweep(mdp, W, cost, flat)
        res = float(np.max(np.abs(q_best - W)))
        trace.append((k, res))
        switch = q_flat - q_best > cfg.tolerance * (1.0 + np.abs(W))
        if not switch.any() or k == cfg.max_iterations:
            break
        flat = np.where(switch, best, flat)
        V = None
    return BellmanSolution(
        W=W, policy=StationaryPolicy(flat, mdp.n_labels),
        iterations=k, converged=not switch.any(), residual=res,
        trace=tuple(trace), V=V)


def argmin_set(mdp: DiscreteMDP, W: np.ndarray, g, slack) -> tuple:
    """Per-state sorted action indices within ``slack`` of the Bellman minimum.

    ``slack`` may be a scalar or a per-state array of absolute slacks; the
    strict argmin is always included.  Returns one index array per state.
    """
    _, _, _, (row, act) = _reduce(mdp, W, combined_cost(mdp, g),
                                  margin=np.asarray(slack, dtype=float))
    return tuple(np.split(act, np.searchsorted(row, np.arange(1, mdp.n_states))))
