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
doubles as a runtime sanity check.

Both solvers go through one sweep, :func:`_sweep`: Q = survival *
(w_lo W[next_lo] + w_hi W[next_hi]) + cost, reduced per state to its
smallest-index minimizer.  Under a constant reset every state lands where
state 0 does (``DiscreteMDP.landing_states`` is not None), so state 0's
row of Q is formed once from its landing pairs and broadcast over the
states; the policy solve reads the same pairs.  A cost table of at least
2^18 cells is then reduced in chunks of ``_BLOCK_ELEMENTS // n_actions``
rows (81 at 800 x 801), each added into one reused buffer that stays in
cache, instead of writing a full Q table and reading it back for the
argmin.  Otherwise the sweep goes
by row blocks: a sweep is a Jacobi update, every row reading only the
previous iterate, so the rows split into independent blocks (Bertsekas &
Tsitsiklis, *Parallel and Distributed Computation*, 1989, section 1.2).  A
large MDP carries one row block per usable core
(``DiscreteMDP.sweep_blocks``, CSR views of the landing pairs made on the
first row-block sweep): the calling thread sweeps the first, a shared
thread pool the others, and the caller takes back any block the pool has
not started by the time it is done.  Each block makes and reduces only its
own rows of the Q table.  Each cell is computed by the same operations in
the same order on every path, so the results are bitwise independent of
the path and of the core count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import (_BLOCK_ELEMENTS, _SWEEP_SPLIT_CELLS, DiscreteMDP,
                    _usable_cores)


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


def _sweep_rows(q, flat):
    best = q.argmin(axis=1)
    rows = np.arange(best.size)
    return best, q[rows, best], None if flat is None else q[rows, flat]


def _sweep_chunks(q_row, cost, flat):
    """``_sweep_rows(q_row + cost, flat)``, made and reduced in row chunks.

    Each chunk of ``max(1, _BLOCK_ELEMENTS // n_actions)`` rows is added
    into one reused buffer that stays in cache, and its argmin and gathers
    go straight into the outputs, so no full Q table is written or read back.
    """
    n, n_actions = cost.shape
    step = max(1, _BLOCK_ELEMENTS // n_actions)
    buf = np.empty((min(step, n), n_actions))
    starts = np.arange(buf.shape[0]) * n_actions  # flat index of each row
    best = np.empty(n, dtype=np.intp)
    q_best = np.empty(n)
    q_flat = None if flat is None else np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        q = np.add(cost[lo:hi], q_row, out=buf[:hi - lo])
        b = q.argmin(axis=1, out=best[lo:hi])
        np.take(q, starts[:hi - lo] + b, out=q_best[lo:hi])
        if flat is not None:
            np.take(q, starts[:hi - lo] + flat[lo:hi], out=q_flat[lo:hi])
    return best, q_best, q_flat


def _sweep(mdp: DiscreteMDP, W: np.ndarray, cost: np.ndarray,
           flat: np.ndarray | None = None) -> tuple:
    """One Bellman sweep of W under the (n_states, n_actions) table ``cost``.

    Returns per state the smallest-index minimizer of
    Q = survival * (w_lo W[next_lo] + w_hi W[next_hi]) + cost, its Q value,
    and the Q value of action ``flat`` (None when ``flat`` is None).  On a
    state-free kernel (``mdp.landing_states`` is not None) every state's
    row of Q is state 0's, formed on the calling thread from row 0's pairs
    and broadcast onto ``cost``; it rounds as the CSR row, whose sum starts
    at an exact 0.  A ``cost`` of at least ``_SWEEP_SPLIT_CELLS`` cells is
    reduced in chunks of ``max(1, _BLOCK_ELEMENTS // n_actions)`` rows
    (:func:`_sweep_chunks`), a smaller one in one ``q + cost`` table; each
    cell goes through the same operations, so the results are bitwise the
    same either way.  Otherwise each row block of ``mdp.sweep_blocks``, a
    CSR view of its states' landing pairs, makes and reduces its own part
    of Q.  The calling thread sweeps the first block while the pool takes
    the others, then takes back and sweeps itself every block no worker has
    started, so a worker that is slow to wake costs at most the serial
    sweep.  No pool task waits on another, so concurrent callers cannot
    deadlock.
    """
    if mdp.landing_states is not None:
        q = mdp.w_lo[0] * W[mdp.next_lo[0]] + mdp.w_hi[0] * W[mdp.next_hi[0]]
        q *= mdp.survival
        if cost.size >= _SWEEP_SPLIT_CELLS:
            return _sweep_chunks(q, cost, flat)
        return _sweep_rows(q + cost, flat)

    def rows(block):
        lo, hi, kernel = block
        q = (kernel @ W).reshape(hi - lo, -1)
        q *= mdp.survival
        q += cost[lo:hi]
        return _sweep_rows(q, None if flat is None else flat[lo:hi])

    first, *rest = mdp.sweep_blocks
    if not rest:
        return rows(first)
    pool = _executor()
    futures = [pool.submit(rows, block) for block in rest]
    parts = [rows(first)]
    parts += [rows(block) if f.cancel() else f for f, block in zip(futures, rest)]
    parts = [p if isinstance(p, tuple) else p.result() for p in parts]
    best, q_best, q_at_flat = zip(*parts)
    return (np.concatenate(best), np.concatenate(q_best),
            None if flat is None else np.concatenate(q_at_flat))


def solve_W(mdp: DiscreteMDP, g, cfg: BellmanConfig = BellmanConfig(),
            on_iterate=None) -> BellmanSolution:
    """Successive approximation from W = 0 until the sup-norm change is small.

    Returns the last iterate with its greedy policy.  Iterates are pointwise
    nondecreasing; a decrease beyond floating round-off raises RuntimeError
    since it indicates corrupted inputs.  When max_iterations is hit with the
    change still above tolerance the solution is returned flagged
    ``converged=False`` (the backup is not a uniform contraction when
    zero-wait actions survive with weight 1; positive impulse costs make such
    loops non-optimal, and this flag guards pathological inputs).
    ``on_iterate(k, W_k)`` is called with each new iterate when given.
    """
    cost = combined_cost(mdp, g)
    W = np.zeros(mdp.n_states)
    sup_change = math.inf
    trace = []
    iterations = 0
    if on_iterate is not None:
        on_iterate(0, W.copy())
    for k in range(1, cfg.max_iterations + 1):
        _, W_new, _ = _sweep(mdp, W, cost)
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
    flat, _, _ = _sweep(mdp, W, cost)
    return BellmanSolution(
        W=W, policy=StationaryPolicy(flat, mdp.n_labels),
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
    q = mdp.w_lo * W[mdp.next_lo] + mdp.w_hi * W[mdp.next_hi]
    q *= mdp.survival
    q += combined_cost(mdp, g)
    thr = q.min(axis=1) + np.asarray(slack, dtype=float)
    return tuple(np.nonzero(q[i] <= thr[i])[0] for i in range(mdp.n_states))
