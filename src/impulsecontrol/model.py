"""Impulse control problems over deterministic flows and their induced discrete MDPs.

A problem is given by a semiflow phi(x, t), a jump map l(x, a), J+1 pairs of
cost functions (running rate, lump impulse cost), a discount factor alpha and
constraint bounds d_1..d_J.  Solvers in this package operate on the induced
discrete-time MDP in which one step corresponds to one impulse: the action is
a pair (theta, a) of waiting time and impulse, and discounting is encoded as
killing with survival probability exp(-alpha*theta).  The killed mass simply
leaves: no state holds it, so each step's kernel is sub-stochastic.

This module owns discretization onto a finite state/waiting-time grid:
landing states are represented by linear interpolation weights between
bracketing grid points, and the infinite waiting time is kept as an exact
sentinel (never a large float) so that killing is exact.  The landing map is
stored once, in ``DiscreteMDP.next_states`` and ``next_weights`` that every
solver reads (one broadcast row under a :class:`ConstantReset`).

Running-cost integrals are exact wherever the problem's types allow it.
Every rate and flow a configuration document can declare has a closed form:
a rate is a number or a :class:`PolynomialRate` (constant, polynomial and
piecewise-constant tables), and the flow is a :class:`DriftFlow`
x + c t or a :class:`DecayFlow` x e^{-r t}.  Along such a flow, the
discounted integral of a polynomial is a short sum of per-state factors
times incomplete-gamma or exponential factors in the wait, split where the
trajectory crosses a breakpoint.  Only a rate or flow given as a Python map
is integrated by composite Simpson quadrature, with step at most
``quadrature_step``.  :func:`stage_cost` integrates every rate that is not
a number by Simpson, with its span split where the flow crosses a
breakpoint: the independent reference that ``verify`` holds the tables
against.

User maps (flow, reset, cost rates, lump costs) are called on numpy arrays,
once per block of grid states, never on the whole grid at once.  One budget,
``_BLOCK_ELEMENTS`` float64 values of workspace, sizes every block: the
flow, reset and lump maps are called once per block of about that many
(state, action) cells, and the flow and cost rates of the running-cost
quadrature once per block of about that many (state, quadrature node)
pairs.  So the maps should be written with numpy operations.  Every table
entry rounds the same whatever the blocks, so the tables are bitwise
independent of the blocking.  A map that only accepts scalars
still works: when a call on a block's arrays raises TypeError or ValueError
(what numpy raises when ``math.exp`` or an ``if`` meets an array) the map is
evaluated point by point within that block, which is much slower.  Any other
exception from a user map propagates.
"""

from __future__ import annotations

import math
import numbers
import os
import reprlib
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable

import numpy as np

INFINITY = math.inf


# Horizon (in units of 1/alpha) for quadrature of infinite-wait running costs.
# exp(-60) ~ 9e-27, negligible for any subexponential cost rate.
_INF_HORIZON = 60.0
# float64 elements of one block's workspace in discretize, (states x
# actions) or (states x quadrature nodes), and of one row chunk of a
# Bellman pass: 512 KiB, so it stays in L2 cache
_BLOCK_ELEMENTS = 2 ** 16
# validate's flow identities: grid states sampled and the residual they allow
FLOW_SAMPLES = 12
FLOW_TOLERANCE = 1e-9
# bytes per node of a running-cost Simpson lattice while it is built (span
# index, offset, node and weight, plus temporaries) and then kept (node,
# weight, discounted weight)
_LATTICE_NODE_BYTES = 48
# (state, action) cells from which a state-dependent Bellman pass splits its
# row chunks into one run per usable core: a 2 MiB float64 Q table, one
# core's L2 cache
_SWEEP_SPLIT_CELLS = 2 ** 18


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened, as ``np.unique``
    gives them, without the ``numpy.ma`` import of its first call."""
    a = np.sort(np.ravel(a))
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _row_blocks(next_states: np.ndarray, next_weights: np.ndarray,
                rows: int) -> tuple:
    """The kernel as CSR row blocks of ``rows`` contiguous grid states each,
    the last one shorter if need be.

    Returns (first state, end state, CSR) triples.  Row ``i * n_actions + q``
    of a block holds cell (i, q)'s two entries, so a block's ``data`` and
    ``indices`` view a slice of the pair arrays, and its ``indptr`` a prefix
    of one row pointer that all blocks share.  The Bellman pass reads the
    blocks only when ``DiscreteMDP.landing_states`` is None; scipy.sparse
    is imported here, on that path only.
    """
    from scipy.sparse import csr_matrix
    n_states, n_actions, _ = next_states.shape
    indptr = np.arange(0, next_states.size + 1, 2, dtype=np.int32)  # two a row
    indptr.setflags(write=False)
    blocks = []
    for lo in range(0, n_states, rows):
        hi = min(lo + rows, n_states)
        n_rows = (hi - lo) * n_actions
        # the views are set after construction: the (data, indices, indptr)
        # constructor copies a view that is under half of its base array
        block = csr_matrix((n_rows, n_states), dtype=next_weights.dtype)
        block.data, block.indices, block.indptr = (
            next_weights[lo:hi].reshape(-1), next_states[lo:hi].reshape(-1),
            indptr[:n_rows + 1])
        blocks.append((lo, hi, block))
    return tuple(blocks)


@dataclass(frozen=True)
class ImpulseProblem:
    """Continuous-time impulse control problem.

    Parameters
    ----------
    flow:
        Semiflow phi(x, t); must satisfy phi(x, 0) = x and
        phi(phi(x, s), t) = phi(x, s + t).
    reset:
        Jump map l(x, a) applied at impulse times (see :class:`ConstantReset`).
    gradual_costs:
        J+1 running cost rates >= 0, each a real number or a map x -> rate.
        A number integrates in closed form, and so does a
        :class:`PolynomialRate` along a :class:`DriftFlow` or a
        :class:`DecayFlow`; any other map is integrated by composite
        Simpson quadrature.
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
    """

    flow: Callable
    reset: Callable
    gradual_costs: tuple
    impulse_costs: tuple
    alpha: float
    x0: float
    bounds: tuple
    actions: tuple

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

    @property
    def n_costs(self) -> int:
        return len(self.gradual_costs)

    def constant_rate(self, j: int) -> float | None:
        """Rate j as a float when it is a number, None when it is a map."""
        rate = self.gradual_costs[j]
        return None if callable(rate) else float(rate)


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Finite truncation of the state space and waiting-time axis.

    ``state_points`` is a strictly increasing array of finite points covering
    the truncated state interval; ``theta_points`` is a sorted array of
    finite waiting times that starts at 0.0 and ends with the INFINITY
    sentinel; ``quadrature_step`` bounds the Simpson step for running-cost
    integrals that have no closed form.
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


@dataclass(frozen=True, eq=False)
class DiscreteMDP:
    """Tabulated induced MDP on a finite grid.

    States are the grid points.  Actions are pairs (theta index, label
    index) flattened as ``q = theta_index * n_labels + label_index``, so the
    action order is theta ascending (INFINITY last) with label order
    breaking ties.  ``survival[q]`` is exp(-alpha*theta), exactly 0 for the
    INFINITY column and exactly 1 for theta = 0.  ``next_states[i, q]``
    holds the two grid states bracketing the landing from cell (i, q),
    lower first, and ``next_weights[i, q]`` their convex interpolation
    weights (``next_lo``, ``next_hi``, ``w_lo``, ``w_hi`` view them); the
    killed mass 1 - survival[q] leaves, as no state holds it.

    ``sweep_blocks`` holds the row chunks of the Bellman pass, (first
    state, end state, CSR) triples of ``max(1, _BLOCK_ELEMENTS //
    n_actions)`` states each, made on the first pass.  The CSR views the
    chunk's landing pairs; it is None on a state-free kernel, whose pass
    reads state 0's pairs alone.

    Under a :class:`ConstantReset` the pairs are state 0's, broadcast over
    the states (stride 0 on axis 0), and ``landing_states`` holds the at
    most four grid states S they name, sorted; it is None for any other
    layout.  The sweep then broadcasts one row of Q, and
    :meth:`solve_policy` solves on S.  A pickle of such an instance holds
    the one row and broadcasts it again on load.  All arrays are written
    once at construction and are read-only afterwards, so instances are
    safe to share across threads, sweeps and solves included; threads that
    first use an instance at the same time may each make its cached
    values, and they make the same.
    """

    states: np.ndarray            # (n_states,) grid points
    theta_points: np.ndarray      # (n_thetas,) waiting times, last is INFINITY
    action_labels: tuple          # (n_labels,)
    alpha: float
    x0_index: int
    survival: np.ndarray          # (n_actions,)
    next_states: np.ndarray       # (n_states, n_actions, 2) int32, lower first
    next_weights: np.ndarray      # (n_states, n_actions, 2) float64
    costs: np.ndarray             # (n_costs, n_states, n_actions)
    bounds: tuple = ()            # constraint bounds d_1..d_J
    clamped_cells: int = 0
    next_lo: np.ndarray = field(init=False, repr=False)  # (n_states, n_actions)
    next_hi: np.ndarray = field(init=False, repr=False)
    w_lo: np.ndarray = field(init=False, repr=False)
    w_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for arr in (self.states, self.theta_points, self.survival,
                    self.next_states, self.next_weights, self.costs):
            arr.setflags(write=False)
        cols, weights = self.next_states, self.next_weights
        for name, view in (("next_lo", cols[..., 0]), ("next_hi", cols[..., 1]),
                           ("w_lo", weights[..., 0]), ("w_hi", weights[..., 1])):
            object.__setattr__(self, name, view)
        if len(self.bounds) != self.costs.shape[0] - 1:
            raise ValueError(
                f"expected {self.costs.shape[0] - 1} bounds, got {len(self.bounds)}")

    def __reduce__(self):
        # a state-free kernel pickles its one stored row, broadcast on load;
        # the cached values are made again on first use
        state = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        state_free = self.landing_states is not None
        if state_free:
            state["next_states"] = self.next_states[:1]
            state["next_weights"] = self.next_weights[:1]
        return _unpickle_mdp, (state, state_free)

    @cached_property
    def sweep_blocks(self) -> tuple:
        rows = max(1, _BLOCK_ELEMENTS // self.n_actions)
        if self.landing_states is None:
            return _row_blocks(self.next_states, self.next_weights, rows)
        return tuple((lo, min(lo + rows, self.n_states), None)
                     for lo in range(0, self.n_states, rows))

    @cached_property
    def landing_states(self) -> np.ndarray | None:
        if self.next_states.strides[0] or self.next_weights.strides[0]:
            return None
        return _distinct(self.next_states[0])

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

    def solve_policy(self, flat: np.ndarray, rhs: np.ndarray,
                     transpose: bool = False) -> np.ndarray | None:
        """Solve (I - P) x = rhs, or (I - P^T) x = rhs.

        P is the sub-stochastic state-to-state matrix of the chain that takes
        action ``flat[i]`` at grid state i (the killed mass leaves it): row i
        holds the landing pair of cell (i, flat[i]), scaled by its survival.
        ``rhs`` may have one column per right-hand side, so one solve serves
        every cost the policy is evaluated under.  Returns None when the
        system is singular (a survival-1 cycle) or the solution is not
        finite.

        On a state-free kernel (``landing_states`` is not None), P has
        nonzero columns on the landing states S only, so I - P is block
        triangular and only its S x S block M = I - P[S, S] needs a solve,
        a small dense one (block elimination; Golub & Van Loan, *Matrix
        Computations*, section 3.2).  B = P[:, S] holds row 0's pairs at
        ``flat`` times survival: x[S] solves M x[S] = rhs[S] and
        every other x is rhs + B x[S]; transposed, x is rhs off S and x[S]
        solves M^T x[S] = rhs[S] + P[S^c, S]^T rhs[S^c].  I - P is singular
        exactly when M is.  Otherwise I - P is assembled directly, three
        entries per row (the diagonal 1, then -survival * weight at the two
        landings), with duplicates summed and zeros dropped, and factored
        by sparse LU; the factor is dropped on return.  scipy.sparse and its
        LU are imported on that path only.
        """
        with np.errstate(all="ignore"):
            if self.landing_states is not None:
                x = self._solve_on_landings(flat, rhs, transpose)
            else:
                x = self._solve_by_lu(flat, rhs, transpose)
        if x is None or not np.all(np.isfinite(x)):
            return None
        return x

    def _solve_by_lu(self, flat: np.ndarray, rhs: np.ndarray,
                     transpose: bool) -> np.ndarray | None:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import splu
        n = self.n_states
        rows = np.arange(n)
        cols = np.empty((n, 3), dtype=np.int32)
        vals = np.empty((n, 3))
        cols[:, 0], vals[:, 0] = rows, 1.0
        cols[:, 1:] = self.next_states[rows, flat]
        vals[:, 1:] = -(self.survival[flat, np.newaxis]
                        * self.next_weights[rows, flat])
        A = csr_matrix((vals.ravel(), cols.ravel(),
                        np.arange(0, 3 * n + 1, 3, dtype=np.int32)), shape=(n, n))
        A.sum_duplicates()
        A.eliminate_zeros()
        try:
            lu = splu((A.T if transpose else A).tocsc())
        except RuntimeError:
            return None
        return lu.solve(rhs)

    def _solve_on_landings(self, flat: np.ndarray, rhs: np.ndarray,
                           transpose: bool) -> np.ndarray | None:
        S = self.landing_states
        # P[:, S], C-contiguous as BLAS reads it below
        B = np.zeros((flat.size, S.size))
        w = self.next_weights[0, flat] * self.survival[flat, np.newaxis]
        np.put_along_axis(B, np.searchsorted(S, self.next_states[0, flat]), w, 1)
        M = np.eye(S.size) - B[S]
        try:
            if transpose:
                B[S] = 0.0  # P[S^c, S]
                x = rhs.copy()
                x[S] = np.linalg.solve(M.T, rhs[S] + B.T @ rhs)
            else:
                x_s = np.linalg.solve(M, rhs[S])
                x = rhs + B @ x_s
                x[S] = x_s
        except np.linalg.LinAlgError:
            return None
        return x


def _unpickle_mdp(state: dict, state_free: bool) -> DiscreteMDP:
    if state_free:
        n = state["states"].size
        for name in ("next_states", "next_weights"):
            row = state[name]
            state[name] = np.broadcast_to(row, (n,) + row.shape[1:])
    return DiscreteMDP(**state)


@dataclass(frozen=True)
class ValidationReport:
    """Report of the solvability and flow sanity checks (report-only).

    ``delta_hat`` is the smallest base impulse cost seen on the grid; the dual
    route is unsound when it is not strictly positive, since costless
    zero-wait impulse loops stop being ruled out.  ``cost_sup`` is the largest
    running rate plus largest impulse cost on the grid and must be finite.
    ``semigroup_residual`` and ``identity_residual`` measure how far the flow
    is from a semiflow on sampled (x, s, t) triples; each must be at most
    ``FLOW_TOLERANCE``.
    """

    delta_hat: float
    cost_sup: float
    semigroup_residual: float
    identity_residual: float

    @property
    def delta_ok(self) -> bool:
        return self.delta_hat > 0.0

    @property
    def bounded_ok(self) -> bool:
        return math.isfinite(self.cost_sup)

    @property
    def flow_ok(self) -> bool:
        return (self.semigroup_residual <= FLOW_TOLERANCE
                and self.identity_residual <= FLOW_TOLERANCE)

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

    ``f`` is called once on the arrays of one block of grid states; arguments
    that are not arrays (an action label, a scalar state) are passed through
    unchanged, and a 0-d result is broadcast to a read-only view.  A
    scalar-only map makes numpy raise TypeError or ValueError when it meets an
    array; only then is ``f`` evaluated point by point over the block.  Every
    other exception propagates.
    """
    shape = np.broadcast_shapes(
        *(a.shape for a in args if isinstance(a, np.ndarray)))
    try:
        out = np.asarray(f(*args), dtype=float)
    except (TypeError, ValueError):
        fixed = {i for i, a in enumerate(args) if not isinstance(a, np.ndarray)}
        out = np.vectorize(f, otypes=[float], excluded=fixed)(*args)
    return out if out.shape == shape else np.broadcast_to(out, shape)


# ---------------------------------------------------------------------------
# rates and flows with closed-form running integrals


def _polyval(coeffs: np.ndarray, y) -> np.ndarray:
    """sum_k coeffs[..., k] y^k by Horner's rule, highest power first.

    The leading axes of ``coeffs`` broadcast against ``y``, so each element
    may take its own polynomial.  Returns a fresh array.
    """
    shape = np.broadcast_shapes(coeffs.shape[:-1], np.shape(y))
    out = np.array(np.broadcast_to(coeffs[..., -1], shape), dtype=float)
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        out = out * y + coeffs[..., k]
    return out


def _gamma_p(n: int, z: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(n, z) for an integer n >= 1.

    ``z`` holds values >= 0, inf included (P(n, inf) = 1).  P(1, z) is
    -expm1(-z).  For n > 1, below z = n the series
    e^{-z} z^n / n! * sum_k z^k / ((n+1)...(n+k)) avoids the cancellation
    of 1 - e^{-z} sum_{k<n} z^k / k!, which serves from z = n on, where
    P(n, z) > 1/2.  The series takes a number of terms set by n alone, so
    each element goes through the same operations whatever the array.
    """
    z = np.asarray(z, dtype=float)
    if n == 1:
        return -np.expm1(-z)
    out = np.empty(z.shape)
    small = z < n
    zs = z[small]
    term, total = np.ones(zs.shape), np.ones(zs.shape)
    k, bound = 0, 1.0  # bound on the k-th term, z^k / ((n+1)...(n+k)) at z = n
    while bound >= 2.0 ** -60:
        k += 1
        bound *= n / (n + k)
        term *= zs / (n + k)
        total += term
    lead = np.exp(-zs)
    for i in range(1, n + 1):
        lead *= zs / i
    out[small] = lead * total
    zl = z[~small]
    term = np.exp(-zl)
    total = term.copy()
    zl = np.where(np.isinf(zl), 0.0, zl)  # e^{-inf} z^k: every term is 0
    for i in range(1, n):
        term *= zl / i
        total += term
    out[~small] = 1.0 - total
    return out


class PolynomialRate:
    """Piecewise-polynomial running-cost rate.

    ``coeffs[m]`` holds piece m's coefficients, constant term first, and
    piece m applies on [breakpoints[m-1], breakpoints[m]) (the first piece
    from -inf, the last up to +inf), so a state on a breakpoint takes the
    piece above it.  A 1-D ``coeffs`` is a single polynomial.  The rate is
    a map y -> rate like any other; along a :class:`DriftFlow` or a
    :class:`DecayFlow` its running integrals have closed forms, which
    :func:`discretize` uses.  (Plain classes, not dataclasses: a dataclass
    costs about a millisecond of import time to define.)
    """

    __slots__ = ("coeffs", "breakpoints")

    def __init__(self, coeffs, breakpoints=()):
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))
        b = np.asarray(breakpoints, dtype=float).reshape(-1)
        if c.shape[0] != b.size + 1 or c.shape[1] == 0:
            raise ValueError(
                f"{b.size} breakpoints need {b.size + 1} nonempty pieces, got "
                f"coefficients of shape {c.shape}")
        if not (np.all(np.isfinite(b)) and np.all(np.diff(b) > 0.0)):
            raise ValueError("breakpoints must be finite and strictly increasing")
        self.coeffs = c            # (n_pieces, degree + 1)
        self.breakpoints = b       # (n_pieces - 1,)

    def __call__(self, y):
        if not self.breakpoints.size:
            return _polyval(self.coeffs[0], y)
        return self.piece(np.searchsorted(self.breakpoints, y, side="right"), y)

    def piece(self, m, y) -> np.ndarray:
        """Piece ``m``'s polynomial at ``y``; ``m`` broadcasts against ``y``."""
        return _polyval(self.coeffs[m], y)


def _reach_constant(x: np.ndarray, b: float) -> np.ndarray:
    """Crossing times of b along a stationary trajectory (see ``reach``)."""
    return np.where(x >= b, 0.0, INFINITY)


class DriftFlow:
    """Flow x + rate * t.

    ``reach(x, b)`` is the first time t >= 0 at which the trajectory from
    each state x is at b or beyond it in its direction of motion: 0 when it
    starts there, inf when it never gets there (a stationary trajectory
    counts as rising).  ``rising(x)`` says which trajectories rise.
    ``terms(coeffs, x, alpha)`` expresses the discounted integral of a
    polynomial p along the flow over [0, T] as sum_i A_i(x) K_i(T):
    sum_i c^i p^(i)(x) / alpha^(i+1) * P(i+1, alpha T), with P the
    regularized lower incomplete gamma (``kernel``).
    """

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        self.rate = rate

    def __call__(self, x, t):
        return x + self.rate * t

    def rising(self, x: np.ndarray) -> np.ndarray:
        return np.full(x.shape, self.rate >= 0.0)

    def reach(self, x: np.ndarray, b: float) -> np.ndarray:
        if self.rate == 0.0:
            return _reach_constant(x, b)
        return np.maximum((b - x) / self.rate, 0.0)

    def terms(self, coeffs: np.ndarray, x: np.ndarray, alpha: float) -> list:
        """(A_i(x), kernel key i + 1) pairs; at rate 0 only i = 0 remains."""
        out = []
        for i in range(coeffs.size if self.rate != 0.0 else 1):
            # in float64 scalars, a scale beyond range is inf, and discretize
            # refuses the cost it makes, where Python floats would raise
            with np.errstate(over="ignore", divide="ignore"):
                scale = np.float64(self.rate) ** i / np.float64(alpha) ** (i + 1)
            out.append((scale * _polyval(coeffs, x), i + 1))
            coeffs = coeffs[1:] * np.arange(1, coeffs.size)  # p' from p
        return out

    def kernel(self, key: int, T: np.ndarray, alpha: float) -> np.ndarray:
        return _gamma_p(key, alpha * T)


class DecayFlow:
    """Flow x * exp(-rate * t), rate >= 0: every state decays toward 0.

    ``reach``, ``rising`` and ``terms`` as for :class:`DriftFlow`.  Here
    p(x e^{-rt}) = sum_k a_k x^k e^{-krt}, so the integral over [0, T] is
    sum_k a_k x^k (1 - e^{-(alpha + k r) T}) / (alpha + k r), and a
    breakpoint b between 0 and x is reached at ln(x / b) / r.
    """

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        self.rate = rate

    def __call__(self, x, t):
        return x * np.exp(-self.rate * t)

    def rising(self, x: np.ndarray) -> np.ndarray:
        return (x <= 0.0) | (self.rate == 0.0)

    def reach(self, x: np.ndarray, b: float) -> np.ndarray:
        if self.rate == 0.0:
            return _reach_constant(x, b)
        if b == 0.0:  # a trajectory that moves never reaches 0
            return np.where(x == 0.0, 0.0, INFINITY)
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(0) = -inf makes tau 0 at x = 0, which lies beyond b < 0
            tau = np.maximum(np.log(x / b) / self.rate, 0.0)
        # a positive b is reached from above only, a negative one from below
        if b > 0.0:
            return np.where(x > 0.0, tau, INFINITY)
        return np.where(x > 0.0, INFINITY, tau)

    def terms(self, coeffs: np.ndarray, x: np.ndarray, alpha: float) -> list:
        """(a_k x^k, kernel key k) pairs, zero coefficients left out."""
        return [(a * x ** k, k) for k, a in enumerate(coeffs) if a != 0.0]

    def kernel(self, key: int, T: np.ndarray, alpha: float) -> np.ndarray:
        rate = alpha + key * self.rate
        return -np.expm1(-rate * T) / rate


class ConstantReset:
    """Jump map l(x, a) = value, called as ``value + 0.0 * x`` like the map
    it declares.  Every state lands where state 0 does, so
    :func:`discretize` works out state 0's landings only."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def __call__(self, x, a):
        return self.value + 0.0 * x


_CLOSED_FORM_FLOWS = (DriftFlow, DecayFlow)


def _has_closed_form(problem: ImpulseProblem, j: int) -> bool:
    """Whether rate j integrates along the problem's flow in closed form."""
    return (isinstance(problem.gradual_costs[j], PolynomialRate)
            and isinstance(problem.flow, _CLOSED_FORM_FLOWS))


def _closed_form_integrals(rate: PolynomialRate, flow, alpha: float,
                           x: np.ndarray, thetas: np.ndarray, out: np.ndarray):
    """out[r, k] = integral of e^{-alpha s} rate(flow(x[r], s)) over [0, thetas[k]].

    A trajectory is monotone, so it passes the pieces in order: a rising one
    is in piece m over [tau_{m-1}, tau_m) and a falling one over
    [tau_m, tau_{m-1}), with tau_k the time it reaches breakpoint k.  Each
    piece's polynomial is integrated over its own interval only, as
    sum_i A_i(x) (K_i(min(theta, hi)) - K_i(min(theta, lo))), and A_i is
    0 for the states that never visit the piece.  An end that is 0 for
    every state drops out and one that is inf for every state makes its
    term an outer product of a per-state and a per-theta factor; only a
    finite crossing time needs a (states x thetas) pass, made once per
    breakpoint and kernel.  Every element goes through the same operations
    whatever the block of states, so the tables do not depend on the
    block shape.
    """
    reach = [flow.reach(x, b) for b in rate.breakpoints]
    rising = flow.rising(x)
    up, down = [0.0, *reach, INFINITY], [INFINITY, *reach, 0.0]
    cache = {}

    def kernel(key, t):
        """K_key(min(theta, t)) per state, or None when t is 0 for all."""
        if not t.any():
            return None
        if np.isinf(t).all():
            t = None
        slot = (key, None if t is None else t.tobytes())
        if slot not in cache:
            T = thetas if t is None else np.minimum(thetas, t[:, np.newaxis])
            cache[slot] = flow.kernel(key, T, alpha)
        return cache[slot]

    out[...] = 0.0
    for m, coeffs in enumerate(rate.coeffs):
        lo = np.where(rising, up[m], down[m + 1])
        hi = np.where(rising, up[m + 1], down[m])
        visited = hi > lo
        if not visited.any():
            continue
        for A, key in flow.terms(coeffs, x, alpha):
            K_lo, K_hi = kernel(key, lo), kernel(key, hi)
            K = K_hi if K_lo is None else K_hi - K_lo
            # a vanishing alpha makes A inf where K is 0; discretize refuses
            # the nan with the other non-finite costs
            with np.errstate(invalid="ignore"):
                out += np.where(visited, A, 0.0)[:, np.newaxis] * K


def _simpson_lattice(a, b, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Simpson nodes and weights on every span [a[k], b[k]] at once.

    Span k gets the even number n_k = max(2, 2*ceil(span_k / (2*step))) of
    intervals, so its step is at most ``step``; its n_k + 1 nodes are bitwise
    ``np.linspace(a[k], b[k], n_k + 1)`` and follow span k-1's nodes (a shared
    end point appears in both spans).  Returns (nodes, weights, starts), where
    ``starts[k]`` is the offset of span k's first node, as ``np.add.reduceat``
    takes it.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    span = b - a
    n = np.maximum(2, 2 * np.ceil(span / (2.0 * step)).astype(np.int64))
    ends = np.cumsum(n + 1) - 1
    starts = ends - n
    seg = np.repeat(np.arange(n.size), n + 1)
    local = np.arange(seg.size) - starts[seg]
    h = span / n
    nodes = local * h[seg] + a[seg]
    nodes[ends] = b
    weights = np.where(local % 2 == 1, 4.0, 2.0)
    weights[starts] = weights[ends] = 1.0
    weights *= (h / 3.0)[seg]
    return nodes, weights, starts


def _running_integral_scalar(problem: ImpulseProblem, x: float, theta: float,
                             j: int, step: float) -> float:
    """Discounted running-cost integral for one cost index at one state.

    A numeric rate takes the closed form; any other is integrated by
    composite Simpson, an independent reference for the tables.  When the
    rate is a :class:`PolynomialRate` with breakpoints and the flow says
    when it reaches them (``reach``), the span is split at those times and
    each part evaluates the one piece its midpoint lies in, so no Simpson
    panel straddles a jump of the rate.
    """
    alpha = problem.alpha
    const = problem.constant_rate(j)
    if const is not None:
        if math.isinf(theta):
            return const / alpha
        return const * (-math.expm1(-alpha * theta)) / alpha
    if theta == 0.0:
        return 0.0
    rate = problem.gradual_costs[j]
    end = _INF_HORIZON / alpha if math.isinf(theta) else theta
    if not (_has_closed_form(problem, j) and rate.breakpoints.size):
        tt, w, _ = _simpson_lattice(0.0, end, step)
        vals = _eval(rate, _eval(problem.flow, x, tt)) * np.exp(-alpha * tt)
        return float(np.dot(w, vals))
    at = np.array([float(x)])
    cuts = _distinct([t for b in rate.breakpoints
                      for t in problem.flow.reach(at, b) if 0.0 < t < end])
    edges = np.concatenate(([0.0], cuts, [end]))
    tt, w, starts = _simpson_lattice(edges[:-1], edges[1:], step)
    mids = _eval(problem.flow, float(x), 0.5 * (edges[:-1] + edges[1:]))
    piece = np.searchsorted(rate.breakpoints, mids, side="right")
    sizes = np.diff(np.append(starts, tt.size))
    vals = rate.piece(np.repeat(piece, sizes), _eval(problem.flow, float(x), tt))
    return float(np.dot(w, vals * np.exp(-alpha * tt)))


# ---------------------------------------------------------------------------
# core operations


def stage_cost(problem: ImpulseProblem, x, theta: float, a, j: int,
               step: float = 1e-3) -> float:
    """One-step cost of waiting theta at state x then applying impulse a.

    Returns the discounted running cost accumulated along the flow over
    [0, theta] plus exp(-alpha*theta) times the impulse cost at the landing
    point.  The infinite waiting time drops the impulse term (the running
    integral is then taken over [0, inf)).  ``step`` bounds the Simpson
    quadrature step, even for a rate that :func:`discretize` integrates in
    closed form (see :func:`_running_integral_scalar`); a numeric (constant)
    rate uses the exact closed form instead.
    """
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


def _running_integral_blocks(problem: ImpulseProblem, grid: GridSpec, R: np.ndarray):
    """Write the cumulative discounted running integrals into R, block by block.

    ``R[j, i, k]`` becomes the integral of rate j over [0, theta_k] from grid
    state i; R may be a strided view, such as one label's columns of the cost
    table.  Yields the slice of grid states of each block of about
    ``_BLOCK_ELEMENTS`` (state, action) cells once its rows of R are written.

    Numeric (constant) rates take the closed form, and so does a
    :class:`PolynomialRate` along a :class:`DriftFlow` or a
    :class:`DecayFlow` (:func:`_closed_form_integrals`): every column
    straight from 0, exact up to rounding.  Only a rate or flow given as a
    Python map is integrated numerically: finite theta columns accumulate
    segment-wise composite Simpson between consecutive theta grid points
    (step bounded by quadrature_step), and the last column is the
    infinite-wait integral over [0, 60/alpha].  Both lattices come from
    :func:`_simpson_lattice`, the rule :func:`stage_cost` uses on its single
    span, so values agree with it to quadrature accuracy, not bitwise.

    Those maps are integrated first, in their own pass: the flow and the
    cost rates are called once per block of ``_BLOCK_ELEMENTS // nodes``
    grid states, where ``nodes`` is the larger lattice, so the (states x
    nodes) workspaces stay cache-sized whatever the grid and the discount
    rate.  Each row's sums and its infinite-wait dot product round the same
    in any block, so every table is bitwise independent of the blocking.
    """
    xs = grid.state_points
    th_fin = grid.theta_points[:-1]
    alpha = problem.alpha
    step = grid.quadrature_step
    n, m_fin, jn = xs.size, th_fin.size, problem.n_costs

    closed_js = [j for j in range(jn) if _has_closed_form(problem, j)]
    quad_js = [j for j in range(jn) if problem.constant_rate(j) is None
               and j not in closed_js]
    if quad_js:
        # discount times weight on the finite segments' lattice (empty when
        # the only finite theta is 0) and on the infinite wait's
        # ~60/(alpha*step) nodes
        tt, w, starts = _simpson_lattice(th_fin[:-1], th_fin[1:], step)
        disc_w = np.exp(-alpha * tt) * w
        tt_inf, w_inf, _ = _simpson_lattice(0.0, _INF_HORIZON / alpha, step)
        disc_w_inf = np.exp(-alpha * tt_inf) * w_inf
        quad_block = max(1, _BLOCK_ELEMENTS // max(tt.size, tt_inf.size))
        R[quad_js, :, 0] = 0.0  # nothing accrues over theta = 0
        for lo in range(0, n, quad_block):
            part = slice(lo, min(lo + quad_block, n))
            x = xs[part, np.newaxis]
            if m_fin > 1:
                flow = _eval(problem.flow, x, tt)
                for j in quad_js:
                    # _eval may return a read-only broadcast view: never
                    # scale in place
                    seg = np.add.reduceat(
                        _eval(problem.gradual_costs[j], flow) * disc_w,
                        starts, axis=1)
                    np.cumsum(seg, axis=1, out=R[j, part, 1:m_fin])
            flow = _eval(problem.flow, x, tt_inf)
            for j in quad_js:
                # one dot product per row: a matrix-vector product would
                # round by the row count
                R[j, part, m_fin] = (
                    _eval(problem.gradual_costs[j], flow)[:, np.newaxis]
                    @ disc_w_inf)[:, 0]
        flow = seg = None  # no workspace outlives the pass

    block = max(1, _BLOCK_ELEMENTS // ((m_fin + 1) * len(problem.actions)))

    for lo in range(0, n, block):
        rows = slice(lo, min(lo + block, n))
        for j in range(jn):
            c = problem.constant_rate(j)
            if j in closed_js:
                _closed_form_integrals(problem.gradual_costs[j], problem.flow,
                                       alpha, xs[rows], grid.theta_points,
                                       R[j, rows])
            elif c is not None:
                R[j, rows, :m_fin] = c * (-np.expm1(-alpha * th_fin)) / alpha
                R[j, rows, m_fin] = c / alpha
        yield rows


def discretize(problem: ImpulseProblem, grid: GridSpec) -> DiscreteMDP:
    """Tabulate stage costs and the transition kernel on the grid.

    Landing states get linear interpolation weights between the bracketing
    grid points (``DiscreteMDP.next_states`` and ``next_weights``); landings
    beyond the truncation clamp to the boundary with a warning.  Under a
    :class:`ConstantReset` they are state 0's, broadcast over the states (a
    clamp still counts once per state).  User maps are called here, never
    during iteration: the running-cost maps first, in their own cache-sized
    blocks (see :func:`_running_integral_blocks`), then one pass over blocks
    of about ``_BLOCK_ELEMENTS`` (state, action) cells, written straight
    into the output, that calls the flow, reset and lump costs for the
    landings once per block, not once on the whole grid (a scalar-only map
    falls back to point by point within each call).  The tables are bitwise
    the same whatever the blocks.  Raises ValueError naming the offending
    cell if a landing is non-finite (checked per block) or a tabulated cost
    is non-finite or negative, and, before any table exists, for an off-grid
    x0, a survival that underflows or a grid that :func:`check_footprint`
    refuses.
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

    survival = np.exp(-alpha * np.repeat(thetas, L))  # exactly 0 at INFINITY
    if np.any(survival[:-L] == 0.0):
        raise ValueError(
            "exp(-alpha*theta) underflows to 0 for a finite theta point; "
            "reduce theta_max or alpha")
    check_footprint(problem, grid)

    # landing pairs [i, k, a] = (lower, upper) of cell (i, k*L + a); INF cells
    # are all killed, and a zero weight on state 1 keeps the pair sorted; a
    # constant reset's one row is broadcast on return.  Weights first: the
    # next build after a drop then page-faults less
    constant = isinstance(problem.reset, ConstantReset)
    weights = np.empty((1 if constant else n, m, L, 2))
    cols = np.empty(weights.shape, dtype=np.int32)
    cols[:, -1], weights[:, -1] = (0, 1), (1.0, 0.0)
    costs = np.empty((jn, n, n_actions))
    costs_v = costs.reshape(jn, n, m, L)
    clamp_tol = 1e-12 * (1.0 + xs[-1] - xs[0])
    clamped = 0
    all_ok = True

    surv_fin = survival[::L][:-1]
    # action q = k*L + a carries the running integral R[j, :, k], written
    # into label 0 and copied to the others; the INF column keeps just that
    for rows in _running_integral_blocks(problem, grid, costs_v[..., 0]):
        block = costs_v[:, rows]
        for a_idx in range(1, L):
            block[..., a_idx] = block[..., 0]
        y_flow = _eval(problem.flow, xs[rows, np.newaxis], thetas[np.newaxis, :-1])
        # a constant reset lands its one row in the first block (rows slices it)
        for a_idx, label in enumerate(() if constant and rows.start else labels):
            landing = _eval(problem.reset, y_flow[:1] if constant else y_flow, label)
            if not np.isfinite(landing).all():
                r, k = np.argwhere(~np.isfinite(landing))[0]
                i = rows.start + int(r)
                raise ValueError(
                    f"landing state is non-finite at state {float(xs[i])} "
                    f"(index {i}), theta={float(thetas[k])}, action={label!r}: "
                    f"{float(landing[r, k])!r}")
            clamped += (n if constant else 1) * int(np.sum(
                (landing < xs[0] - clamp_tol) | (landing > xs[-1] + clamp_tol)))
            landing = np.clip(landing, xs[0], xs[-1])
            hi = np.clip(np.searchsorted(xs, landing), 1, n - 1)
            lo = hi - 1
            frac = np.clip((landing - xs[lo]) / (xs[hi] - xs[lo]), 0.0, 1.0)
            cols[rows, :-1, a_idx, 0], cols[rows, :-1, a_idx, 1] = lo, hi
            weights[rows, :-1, a_idx, 0], weights[rows, :-1, a_idx, 1] = 1.0 - frac, frac
        for a_idx, label in enumerate(labels):
            for j in range(jn):
                block[j, :, :-1, a_idx] += surv_fin * _eval(
                    problem.impulse_costs[j], y_flow, label)
        # a flag only: the scan below names the first bad cell in table order
        all_ok &= bool(np.all(block >= 0.0) and np.isfinite(block).all())

    if not all_ok:
        j, i, q = np.argwhere(~np.isfinite(costs) | (costs < 0.0))[0]
        raise ValueError(
            f"tabulated cost is non-finite or negative at state {xs[i]} "
            f"(index {i}), theta={thetas[q // L]}, action={labels[q % L]!r}, "
            f"cost index {j}: {float(costs[j, i, q])!r}")

    if clamped:
        warnings.warn(
            f"{clamped} landing states fell outside the state truncation and "
            "were clamped to the boundary; enlarge the state grid if they are "
            "visited at optimum", RuntimeWarning, stacklevel=2)

    return DiscreteMDP(
        states=xs.copy(), theta_points=thetas.copy(), action_labels=tuple(labels),
        alpha=alpha, x0_index=i0, survival=survival, costs=costs,
        next_states=np.broadcast_to(cols, (n, m, L, 2)).reshape(n, n_actions, 2),
        next_weights=np.broadcast_to(weights, (n, m, L, 2)).reshape(n, n_actions, 2),
        bounds=tuple(problem.bounds), clamped_cells=clamped)


def physical_memory() -> int | None:
    """Bytes of physical memory from ``os.sysconf``; None where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_footprint(problem: ImpulseProblem, grid: GridSpec,
                    references: bool = False) -> None:
    """Refuse a grid whose tables and quadrature lattice exceed physical memory.

    The estimate uses the grid sizes alone, before any table exists: the
    cost tables (8 bytes per cost per (state, action) cell), the kernel (two
    int32 states and two float64 weights per cell and an int32 row pointer,
    none for a :class:`ConstantReset`'s broadcast row), and, when some
    running-cost rate is integrated by Simpson, the lattices (at most
    span / quadrature_step + 3
    nodes per finite theta span, and 60 / (alpha * quadrature_step) + 3 on
    the infinite wait), at ``_LATTICE_NODE_BYTES`` per node.
    :func:`_running_integral_blocks` integrates by Simpson only a rate that
    is not a number and has no closed form (a Python map).  With
    ``references``, every rate that is not a number counts, since
    :func:`stage_cost`, and so ``verify``'s references, integrate all of
    them by Simpson; the largest span they take is within the same bound.
    Raises ValueError naming the grid field behind the larger part, with
    the byte count, when the estimate exceeds :func:`physical_memory`.
    """
    limit = physical_memory()
    if limit is None:
        return
    n, m = grid.state_points.size, grid.theta_points.size
    cells = n * m * len(problem.actions)
    pairs = 0 if isinstance(problem.reset, ConstantReset) else 2 * (4 + 8) + 4
    tables = cells * (8 * problem.n_costs + pairs)
    lattice = 0
    if any(problem.constant_rate(j) is None
           and (references or not _has_closed_form(problem, j))
           for j in range(problem.n_costs)):
        step = grid.quadrature_step
        # divided in turn: a tiny alpha * step would underflow to 0, where
        # this overflows to inf and meets the cap that keeps it an int
        nodes = (float(grid.theta_points[-2]) / step + 3.0 * (m - 2)
                 + _INF_HORIZON / problem.alpha / step + 3.0)
        lattice = int(min(nodes * _LATTICE_NODE_BYTES, 2.0 ** 62))
    total = tables + lattice
    if total <= limit:
        return
    if lattice > tables:
        what = (f"grid.quadrature_step={grid.quadrature_step!r} needs a "
                f"running-cost quadrature lattice of {lattice} bytes")
    else:
        what = (f"grid.state_n x grid.theta_n = {n} x {m - 1} needs "
                f"{tables} bytes of cost and kernel tables")
    raise ValueError(
        f"{what} ({total} bytes in all, about {total / 2 ** 30:.3g} GiB), "
        f"more than the {limit} bytes of physical memory")


def validate(problem: ImpulseProblem, grid: GridSpec) -> ValidationReport:
    """Check solvability conditions and flow identities on the grid (report-only).

    Computes the minimum base impulse cost and the largest running/impulse
    cost over the grid, and the worst semigroup and identity residuals of the
    flow over a deterministic sample of (x, s, t) triples (``FLOW_SAMPLES``
    evenly spaced grid states).
    """
    xs = grid.state_points
    sample = xs[_distinct(np.linspace(0, xs.size - 1, FLOW_SAMPLES).astype(int))]

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

    # phi(phi(x, s), t) against phi(x, s + t) on the (sample x s x t) lattice
    ss = np.linspace(0.0, max(grid.theta_points[-2], 1e-6), 4)
    x, s, t = sample[:, None, None], ss[None, :, None], ss[None, None, :]
    two_step = _eval(problem.flow, _eval(problem.flow, x, s), t)
    semigroup = np.max(np.abs(two_step - _eval(problem.flow, x, s + t)))
    identity = np.max(np.abs(_eval(problem.flow, sample, 0.0) - sample))

    return ValidationReport(
        delta_hat=delta_hat, cost_sup=cost_sup,
        semigroup_residual=float(semigroup), identity_residual=float(identity))


# ---------------------------------------------------------------------------
# problem construction from configuration documents


class ConfigError(ValueError):
    """Malformed problem configuration; message names the offending field."""


def fluid_problem(alpha: float, h: float, K: float, d: float) -> ImpulseProblem:
    """Single-server fluid buffer: unit inflow drift, reset-to-empty impulse.

    Minimizes the discounted impulse spend (price K per impulse) subject to a
    bound d on the discounted holding cost, whose rate is h per unit of
    buffer content.
    """
    if not (h > 0.0 and K > 0.0 and d > 0.0):
        raise ConfigError(
            f"fluid model requires h > 0, K > 0, d > 0, got h={h}, K={K}, d={d}")
    return ImpulseProblem(
        flow=DriftFlow(1.0),
        reset=ConstantReset(0.0),
        gradual_costs=(0.0, PolynomialRate([0.0, h])),
        impulse_costs=(lambda x, a: K + 0.0 * x, lambda x, a: 0.0 * x),
        alpha=alpha,
        x0=0.0,
        bounds=(d,),
        actions=("reset",),
    )


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{path}{key}'")
    return cfg[key]


def _is_number(v) -> bool:
    """A JSON number: a real that is not a boolean.  ``float`` and ``int``
    are tested before the slower ``numbers.Real`` check."""
    return isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool)


def _number(cfg: dict, key: str, path: str) -> float:
    """Required number field ``key`` of ``cfg`` as a float; ``path`` as for
    ``_require``.  A boolean, a string, ``null`` or a container is refused."""
    raw = _require(cfg, key, path)
    if not _is_number(raw):
        raise ConfigError(
            f"'{path}{key}' must be a number, got {reprlib.repr(raw)}")
    return _float(raw, path + key)


def _float(raw, name: str) -> float:
    """The number ``raw`` of field ``name`` as a float.  An integer beyond
    the float range (JSON keeps every digit of one) is refused."""
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(
            f"'{name}' is beyond the float range, got {reprlib.repr(raw)}") from None


def _numbers(raw, name: str) -> np.ndarray:
    """``raw``, a list of numbers, as a float array; ``name`` names the field.

    A scalar, ``null``, a string or a boolean entry is refused, and so is
    an integer beyond the float range.
    """
    if not (isinstance(raw, (list, tuple)) and all(map(_is_number, raw))):
        raise ConfigError(
            f"'{name}' must be a list of numbers, got {reprlib.repr(raw)}")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError:
        raise ConfigError(
            f"'{name}' holds a number beyond the float range, got "
            f"{reprlib.repr(raw)}") from None


def _number_list(spec: dict, key: str, path: str) -> np.ndarray:
    """Required list-of-numbers field ``key`` of ``spec`` as a float array
    (see ``_numbers``)."""
    return _numbers(_require(spec, key, path), path + key)


def _rate_from_spec(spec, path: str):
    """A cost-rate table as a float (a constant rate) or a PolynomialRate."""
    if _is_number(spec):
        return _float(spec, path)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"'{path}' must be a number or an object with a 'type'")
    kind = spec["type"]
    if kind == "constant":
        return _number(spec, "value", path + ".")
    if kind == "polynomial":
        coeffs = _number_list(spec, "coeffs", path + ".")
        if coeffs.size == 0:
            raise ConfigError(f"'{path}.coeffs' must be nonempty")
        if coeffs.size == 1:
            return float(coeffs[0])
        return PolynomialRate(coeffs)
    if kind == "piecewise_constant":
        brk = _number_list(spec, "breakpoints", path + ".")
        vals = _number_list(spec, "values", path + ".")
        if vals.size != brk.size + 1:
            raise ConfigError(
                f"'{path}.values' must have one more entry than breakpoints")
        if not (np.all(np.isfinite(brk)) and np.all(np.diff(brk) > 0.0)):
            raise ConfigError(
                f"'{path}.breakpoints' must be strictly increasing finite numbers")
        if not brk.size:
            return float(vals[0])
        return PolynomialRate(vals[:, np.newaxis], brk)
    raise ConfigError(f"unknown cost-rate type '{kind}' at '{path}'")


def _impulse_from_spec(spec, actions, path: str):
    rate = _rate_from_spec(spec, path)
    base = rate if callable(rate) else (lambda x: rate + 0.0 * x)
    factors = spec.get("action_factors", {}) if isinstance(spec, dict) else {}
    if not isinstance(factors, dict):
        raise ConfigError(
            f"'{path}.action_factors' must be an object mapping action labels "
            f"to numbers, got {reprlib.repr(factors)}")
    for label in factors:
        if label not in actions:
            raise ConfigError(
                f"'{path}.action_factors' names unknown action '{label}'")
    if not factors:
        return lambda x, a: base(x)
    fmap = {label: _number(factors, label, f"{path}.action_factors.")
            if label in factors else 1.0 for label in actions}
    return lambda x, a: fmap[a] * base(x)


def _flow_from_spec(spec, path: str):
    kind = _require(spec, "type", path + ".")
    if kind == "drift":
        return DriftFlow(_number(spec, "rate", path + "."))
    if kind == "exponential_decay":
        r = _number(spec, "rate", path + ".")
        if not r >= 0.0:
            raise ConfigError(f"'{path}.rate' must be >= 0 for exponential_decay")
        return DecayFlow(r)
    raise ConfigError(f"unknown flow type '{kind}' at '{path}'")


def _reset_from_spec(spec, path: str):
    kind = _require(spec, "type", path + ".")
    if kind == "constant":
        return ConstantReset(_number(spec, "value", path + "."))
    if kind == "scale":
        s = _number(spec, "factor", path + ".")
        return lambda x, a: s * x
    raise ConfigError(f"unknown reset type '{kind}' at '{path}'")


def _count(g: dict, key: str) -> int:
    """An integral grid count; 400 and 400.0 pass, 400.9 and NaN do not."""
    raw = _number(g, key, "grid.")
    if not raw.is_integer():
        raise ValueError(f"{key} must be an integer, got {raw!r}")
    return int(raw)


def grid_from_config(cfg: dict) -> GridSpec:
    g = _require(cfg, "grid", "")
    try:
        return GridSpec.uniform(
            state_min=_number(g, "state_min", "grid."),
            state_max=_number(g, "state_max", "grid."),
            state_n=_count(g, "state_n"),
            theta_max=_number(g, "theta_max", "grid."),
            theta_n=_count(g, "theta_n"),
            quadrature_step=_number(g, "quadrature_step", "grid."),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def problem_from_config(cfg: dict) -> tuple[ImpulseProblem, GridSpec]:
    """Build a problem and grid from a parsed configuration document.

    The document has ``model`` ("fluid" or "custom"), ``alpha``, ``x0``,
    ``grid`` and, for the fluid model, ``h``, ``K``, ``d``.  Custom models
    supply ``flow``, ``reset``, ``actions``, ``bounds`` and per-cost
    ``gradual_costs`` / ``impulse_costs`` tables (a number, or a constant,
    polynomial or piecewise_constant table).  A boolean or a string is
    never read as a number.
    """
    model = _require(cfg, "model", "")
    grid = grid_from_config(cfg)
    try:
        alpha = _number(cfg, "alpha", "")
        x0 = _number(cfg, "x0", "") if "x0" in cfg else 0.0
        if model == "fluid":
            prob = fluid_problem(alpha, *(_number(cfg, key, "")
                                          for key in ("h", "K", "d")))
            return replace(prob, x0=x0), grid
        if model == "custom":
            actions = tuple(_require(cfg, "actions", ""))
            if not actions:
                raise ConfigError("'actions' must be nonempty")
            for label in actions:
                if isinstance(label, (list, dict)):  # unhashable: no label
                    raise ConfigError("'actions' entries must be strings or "
                                      f"numbers, got {reprlib.repr(label)}")
            bounds = tuple(_number_list(cfg, "bounds", "").tolist())
            g_specs = _require(cfg, "gradual_costs", "")
            i_specs = _require(cfg, "impulse_costs", "")
            if len(g_specs) != len(bounds) + 1 or len(i_specs) != len(bounds) + 1:
                raise ConfigError(
                    "gradual_costs and impulse_costs must each have "
                    f"{len(bounds) + 1} entries for {len(bounds)} bounds")
            rates = tuple(_rate_from_spec(spec, f"gradual_costs[{j}]")
                          for j, spec in enumerate(g_specs))
            lumps = tuple(_impulse_from_spec(spec, actions, f"impulse_costs[{j}]")
                          for j, spec in enumerate(i_specs))
            prob = ImpulseProblem(
                flow=_flow_from_spec(_require(cfg, "flow", ""), "flow"),
                reset=_reset_from_spec(_require(cfg, "reset", ""), "reset"),
                gradual_costs=rates,
                impulse_costs=lumps,
                alpha=alpha,
                x0=x0,
                bounds=bounds,
                actions=actions,
            )
            return prob, grid
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown model '{model}' (expected 'fluid' or 'custom')")
