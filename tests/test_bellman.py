import math
import os
import signal
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import impulsecontrol as ic
from impulsecontrol import bellman, fluidq, model
from impulsecontrol.bellman import combined_cost

from conftest import (assert_landing_states, csr_kernel, custom_j2_doc,
                      fluid_doc, fluid_mdp, traced_peak, with_sweep_chunks)


G_STAR = 1.8480894645490473  # analytic multiplier for the benchmark


def _backup(mdp, W, g):
    """One Bellman backup of W through the solvers' sweep, and its argmins."""
    best, q_best, _ = bellman._sweep(mdp, W, combined_cost(mdp, g))
    return q_best, best


def _residual(mdp, W, g):
    """Sup-norm of backup(W) - W."""
    return float(np.max(np.abs(_backup(mdp, W, g)[0] - W)))


def test_backup_from_zero_at_g0_prefers_never_impulse(small_mdp):
    W0 = np.zeros(small_mdp.n_states)
    W1, best = _backup(small_mdp, W0, [0.0])
    assert np.all(W1 == 0.0)
    pol = ic.StationaryPolicy(best, small_mdp.n_labels)
    assert np.all(pol.choice[:, 0] == small_mdp.theta_points.size - 1)


def test_backup_monotone_in_value_argument(small_mdp):
    rng = np.random.default_rng(11)
    Wa = rng.uniform(0.0, 2.0, small_mdp.n_states)
    Wb = Wa + rng.uniform(0.0, 1.0, small_mdp.n_states)
    Ba, _ = _backup(small_mdp, Wa, [0.7])
    Bb, _ = _backup(small_mdp, Wb, [0.7])
    assert np.all(Ba <= Bb)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_backup_monotone_property(data):
    _, _, mdp = fluid_mdp(state_n=15, theta_n=12, state_max=2.0, theta_max=2.0)
    base = data.draw(hnp.arrays(np.float64, mdp.n_states,
                                elements=st.floats(0.0, 5.0)))
    bump = data.draw(hnp.arrays(np.float64, mdp.n_states,
                                elements=st.floats(0.0, 3.0)))
    lo, _ = _backup(mdp, base, [1.0])
    hi, _ = _backup(mdp, base + bump, [1.0])
    assert np.all(lo <= hi)


def test_solve_at_g0_is_identically_zero(small_mdp):
    sol = ic.solve_W(small_mdp, [0.0])
    assert sol.converged and sol.iterations == 1
    assert np.all(sol.W == 0.0)
    assert np.all(sol.policy.choice[:, 0] == small_mdp.theta_points.size - 1)


def test_solve_matches_closed_form_below_threshold(small_mdp, bench_params):
    for g in (0.5 * G_STAR, G_STAR, 2.0 * G_STAR):
        sol = ic.solve_W(small_mdp, [g])
        assert sol.converged
        analytic = np.asarray(
            [fluidq.W_star(bench_params, g, float(x)) for x in small_mdp.states])
        err = np.max(np.abs(sol.W - analytic))
        # theta-grid quantization error, second order in the spacing
        assert err <= 5e-4 * (1.0 + analytic[0])


def test_solve_above_threshold_is_flat_at_K_plus_W0(small_mdp, bench_params):
    g = G_STAR
    sol = ic.solve_W(small_mdp, [g])
    xg = fluidq.x_g(bench_params, g)
    above = small_mdp.states > xg + 2.0 * np.diff(small_mdp.states)[0]
    vals = sol.W[above]
    assert vals.size > 5
    # immediate impulse from any such state lands at 0: identical values
    assert np.all(vals == vals[0])
    # equality with K + W(0) holds up to the stopping tolerance
    assert vals[0] == pytest.approx(1.0 + sol.W[small_mdp.x0_index], abs=1e-8)


def test_iterates_monotone_and_bounded(small_mdp):
    seen = []
    sol = ic.solve_W(small_mdp, [G_STAR], on_iterate=lambda k, W: seen.append(W))
    assert sol.converged
    for prev, cur in zip(seen, seen[1:]):
        assert np.all(cur >= prev)
    # never-impulse value bounds every iterate pointwise
    inf_action = (small_mdp.theta_points.size - 1) * small_mdp.n_labels
    bound = combined_cost(small_mdp, [G_STAR])[:, inf_action]
    for W in seen:
        assert np.all(W <= bound + 1e-12)


def test_converged_solution_satisfies_feasibility_inequality(small_mdp):
    g = [G_STAR]
    sol = ic.solve_W(small_mdp, g)
    W, mdp = sol.W, small_mdp
    q = combined_cost(mdp, g) + mdp.survival * (mdp.w_lo * W[mdp.next_lo]
                                                + mdp.w_hi * W[mdp.next_hi])
    assert float(np.min(q - W[:, np.newaxis])) >= -1e-9


def test_greedy_policy_reproduces_value(small_mdp):
    g = np.asarray([G_STAR])
    sol = ic.solve_W(small_mdp, g)
    v = ic.eval_policy(small_mdp, sol.policy).v
    combined = v[0] + float(g @ v[1:])
    assert abs(combined - sol.W[small_mdp.x0_index]) <= 10.0 * 1e-9


def test_non_converged_flag(small_mdp):
    sol = ic.solve_W(small_mdp, [G_STAR],
                     ic.BellmanConfig(tolerance=1e-9, max_iterations=2))
    assert not sol.converged and sol.iterations == 2
    assert sol.residual > 1e-9


def test_residual_of_converged_solution_is_small(small_mdp):
    sol = ic.solve_W(small_mdp, [G_STAR])
    assert _residual(small_mdp, sol.W, [G_STAR]) <= 1e-9


def test_residual_at_zero_equals_cheapest_stage_cost(small_mdp):
    g = [G_STAR]
    expected = float(np.max(combined_cost(small_mdp, g).min(axis=1)))
    got = _residual(small_mdp, np.zeros(small_mdp.n_states), g)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0.0


def test_residual_of_sampled_analytic_solution(small_mdp, bench_params):
    W = np.asarray(
        [fluidq.W_star(bench_params, G_STAR, float(x)) for x in small_mdp.states])
    # off only by the theta-grid quantization of the minimizer
    assert _residual(small_mdp, W, [G_STAR]) <= 1e-3


def test_argmin_set_slack_extremes(small_mdp):
    sol = ic.solve_W(small_mdp, [G_STAR])
    tight = ic.argmin_set(small_mdp, sol.W, [G_STAR], 0.0)
    # far above the threshold the zero-wait action is a strict argmin
    assert tight[-1].size == 1
    assert np.all([s.size >= 1 for s in tight])
    loose = ic.argmin_set(small_mdp, sol.W, [G_STAR], math.inf)
    assert all(s.size == small_mdp.n_actions for s in loose)
    # strict argmin of the greedy policy is always included
    flat = sol.policy.flat
    for i in range(small_mdp.n_states):
        assert flat[i] in tight[i]


def test_argmin_set_is_the_csr_product_reference(scale_mdp):
    # the pair sum rounds as the CSR product does, so the sets are the
    # product's, ties at zero slack included
    n = scale_mdp.n_states
    sol = ic.policy_iteration(scale_mdp, [1.0])
    for W in (sol.W, np.zeros(n), np.linspace(0.0, 3.0, n)):
        q = (csr_kernel(scale_mdp) @ W).reshape(n, -1)
        q *= scale_mdp.survival
        q += combined_cost(scale_mdp, [1.0])
        for slack in (0.0, 1e-9 * (1.0 + np.abs(W)), 1e-2):
            thr = q.min(axis=1) + slack
            got = ic.argmin_set(scale_mdp, W, [1.0], slack)
            assert len(got) == n
            assert all(np.array_equal(got[i], np.nonzero(q[i] <= thr[i])[0])
                       for i in range(n))


def test_argmin_set_keeps_one_cost_table(verify_800):
    # the combined cost, then one chunk of Q at a time and the sets
    mdp = verify_800
    sol = ic.policy_iteration(mdp, [G_STAR])
    slack = 1e-9 * (1.0 + np.abs(sol.W))
    table = mdp.n_states * mdp.n_actions * 8
    ic.argmin_set(mdp, sol.W, [G_STAR], slack)  # warm
    peak, sets = traced_peak(lambda: ic.argmin_set(mdp, sol.W, [G_STAR], slack))
    assert peak <= 1.3 * table, peak / table
    assert all(sol.policy.flat[i] in sets[i] for i in range(mdp.n_states))


def test_argmin_set_matches_analytic_threshold_rule(small_mdp, bench_analytic):
    g = bench_analytic.g_star
    sol = ic.solve_W(small_mdp, [g])
    sets = ic.argmin_set(small_mdp, sol.W, [g], 1e-7 * (1.0 + sol.W))
    x_star = bench_analytic.x_star
    dtheta = float(small_mdp.theta_points[1] - small_mdp.theta_points[0])
    for i, x in enumerate(small_mdp.states):
        want = max(x_star - float(x), 0.0)
        for q in sets[i]:
            got = float(small_mdp.theta_points[q // small_mdp.n_labels])
            assert abs(got - want) <= 2.5 * dtheta


def test_multiplier_validation(small_mdp):
    with pytest.raises(ValueError, match="nonnegative"):
        ic.solve_W(small_mdp, [-0.1])
    with pytest.raises(ValueError, match="expected 1"):
        ic.solve_W(small_mdp, [0.1, 0.2])


# ---------------------------------------------------------------------------
# policy iteration against the value-iteration reference


@pytest.mark.parametrize("mdp_name, g", [
    ("small_mdp", [0.0]), ("small_mdp", [0.5 * G_STAR]), ("small_mdp", [G_STAR]),
    ("small_mdp", [2.0 * G_STAR]), ("small_mdp", [10.0]),
    ("j2_mdp", [1.0, 0.0]), ("j2_mdp", [3.0, 0.5])])
def test_policy_iteration_matches_value_iteration(request, mdp_name, g):
    mdp = request.getfixturevalue(mdp_name)
    cfg = ic.BellmanConfig()
    pi = ic.policy_iteration(mdp, g, cfg)
    vi = ic.solve_W(mdp, g, cfg)
    assert pi.converged
    rel = np.max(np.abs(pi.W - vi.W) / (1.0 + np.abs(vi.W)))
    assert rel <= 1e3 * cfg.tolerance


def test_policy_iteration_warm_start_matches_cold_start(small_mdp, j2_mdp):
    for mdp, g_prev, g in ((small_mdp, [1.0], [G_STAR]),
                           (j2_mdp, [1.0, 0.0], [3.0, 0.5])):
        cold = ic.policy_iteration(mdp, g)
        prev = ic.policy_iteration(mdp, g_prev).policy
        warm = ic.policy_iteration(mdp, g, start=prev)
        assert warm.policy == cold.policy
        assert np.array_equal(warm.W, cold.W)


def test_warm_start_from_a_solution_reuses_its_factor(monkeypatch, small_mdp,
                                                      j2_mdp):
    # the per-cost values V are the policy's alone: a start given as the
    # previous solution takes its first step from that solution's V, as
    # often as it is reused, and the answer is bitwise that of a start from
    # the bare policy, which solves again.  Linear solves are counted, on
    # the landing states or by sparse LU alike
    made = []
    real = ic.DiscreteMDP.solve_policy
    monkeypatch.setattr(ic.DiscreteMDP, "solve_policy",
                        lambda *args: made.append(1) or real(*args))
    for mdp, g_prev, g in ((small_mdp, [1.0], [G_STAR]),
                           (j2_mdp, [1.0, 0.0], [3.0, 0.5])):
        prev = ic.policy_iteration(mdp, g_prev)
        made.clear()
        bare = ic.policy_iteration(mdp, g, start=prev.policy)
        assert len(made) == bare.iterations
        made.clear()
        warm = ic.policy_iteration(mdp, g, start=prev)
        assert len(made) == warm.iterations - 1
        assert warm.policy == bare.policy and warm.trace == bare.trace
        assert np.array_equal(warm.W, bare.W)
        made.clear()
        again = ic.policy_iteration(mdp, g, start=prev)
        assert len(made) == again.iterations - 1
        assert np.array_equal(again.W, bare.W)
        # a converged solve at g is its own fixed point: one step, no solve
        made.clear()
        fixed = ic.policy_iteration(mdp, g, start=warm)
        assert (len(made), fixed.iterations) == (0, 1)
        assert np.array_equal(fixed.W, warm.W)
    assert ic.solve_W(small_mdp, [1.0]).V is None


def test_policy_iteration_cut_is_exact(small_mdp, j2_mdp):
    # W(x0) is the evaluated policy's own combined cost, so the dual value
    # h(g) = V0(f) + g.(V(f) - d) holds to round-off
    for mdp, g in ((small_mdp, np.asarray([G_STAR])),
                   (small_mdp, np.asarray([40.0])),
                   (j2_mdp, np.asarray([3.0, 0.5]))):
        sol = ic.policy_iteration(mdp, g)
        assert np.array_equal(sol.W, sol.V @ np.concatenate(([1.0], g)))
        v = ic.eval_policy(mdp, sol.policy).v
        np.testing.assert_allclose(sol.V[mdp.x0_index], v, rtol=1e-12, atol=0)
        d = np.asarray(mdp.bounds)
        h = sol.W[mdp.x0_index] - float(g @ d)
        assert h == pytest.approx(v[0] + float(g @ (v[1:] - d)), rel=1e-12)


def test_policy_iteration_step_cap(small_mdp):
    sol = ic.policy_iteration(small_mdp, [G_STAR],
                              ic.BellmanConfig(max_iterations=1))
    assert not sol.converged and sol.iterations == 1
    # the returned policy is the one evaluated: never impulse
    assert np.all(sol.policy.choice[:, 0] == small_mdp.theta_points.size - 1)


@pytest.mark.parametrize("g", [[3.0, 0.5], [0.0, 0.5], [3.0, 0.0], [0.0, 0.0]])
def test_combined_cost_is_the_left_to_right_sum(j2_mdp, g):
    # cost_0 + g_1 cost_1 + g_2 cost_2 in that order, zero terms skipped
    want = j2_mdp.costs[0].copy()
    for gj, cost in zip(g, j2_mdp.costs[1:]):
        if gj != 0.0:
            want += gj * cost
    got = combined_cost(j2_mdp, g)
    assert np.array_equal(got, want)
    assert got.flags.writeable and not np.shares_memory(got, j2_mdp.costs)


@pytest.mark.parametrize("solver", [ic.policy_iteration, ic.solve_W])
def test_bellman_solve_keeps_one_q_table(accept_fluid, solver):
    # the combined cost and one Q table, plus per-state vectors and the
    # policy's sparse system; one table is n_states * n_actions * 8 bytes
    _, _, mdp = accept_fluid
    table = mdp.n_states * mdp.n_actions * 8
    solver(mdp, [1.0])  # warm
    peak, _ = traced_peak(lambda: solver(mdp, [1.0]))
    assert peak <= 2.2 * table, peak / table


def test_sweep_chunks_are_the_block_budget_in_rows(scale_mdp):
    # 120 x 242 cells: chunks of 65536 // 242 = 270 rows, so one chunk
    (lo, hi, kernel), = scale_mdp.sweep_blocks
    assert (lo, hi) == (0, scale_mdp.n_states)
    assert np.shares_memory(kernel.data, scale_mdp.next_weights)
    assert np.shares_memory(kernel.indices, scale_mdp.next_states)
    _assert_csr_equal(kernel, csr_kernel(scale_mdp))
    assert scale_mdp.landing_states is None


def test_sweep_splits_from_two_to_the_eighteen_cells(monkeypatch, scale_mdp):
    # forty chunks of three rows; with more than one usable core the pass
    # splits them among the cores only on a table of at least 2^18 cells
    mdp = with_sweep_chunks(scale_mdp, 3)
    W = np.linspace(0.0, 1.0, mdp.n_states)
    cost = combined_cost(mdp, [1.0])
    monkeypatch.setattr(bellman, "_usable_cores", lambda: 2)
    made = _Spy(monkeypatch, "_executor")
    for split, pooled in ((cost.size + 1, 0), (cost.size, 1)):
        monkeypatch.setattr(bellman, "_SWEEP_SPLIT_CELLS", split)
        bellman._sweep(mdp, W, cost)
        assert made.calls == pooled
    assert model._SWEEP_SPLIT_CELLS == 2 ** 18


def _assert_csr_equal(got, want):
    """Same shape, and bitwise the same data, indices and indptr."""
    assert got.shape == want.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8),
                                                     b.view(np.uint8)), attr


def _assert_sweep_is_the_reference(mdp, g, sol):
    """``_sweep`` is bitwise survival * (w_lo W[lo] + w_hi W[hi]) + cost, at
    the value and policy of ``sol`` and on a tie-heavy table at W = 0."""
    cost = combined_cost(mdp, g)
    flat = sol.policy.flat
    tied = np.floor(2.0 * cost) / 2.0  # W = 0 makes Q this table
    assert np.any((tied == tied.min(axis=1, keepdims=True)).sum(axis=1) > 1)
    rows = np.arange(mdp.n_states)
    for W, c in ((sol.W, cost), (np.zeros(mdp.n_states), tied)):
        q = mdp.survival * (mdp.w_lo * W[mdp.next_lo] + mdp.w_hi * W[mdp.next_hi])
        q += c
        best, q_best, q_flat = bellman._sweep(mdp, W, c, flat)
        assert np.array_equal(best, q.argmin(axis=1))
        assert np.array_equal(q_best, q.min(axis=1))
        assert np.array_equal(q_flat, q[rows, flat])
        assert bellman._sweep(mdp, W, c)[2] is None


def _assert_solvers_agree(want_mdp, got_mdp, g, bitwise=True):
    """Value iteration bitwise; policy iteration bitwise too, or, where one
    MDP solves on its landing states and the other by LU (``bitwise``
    False), with the same policies and W within 1e-14 (1 + |W|)."""
    want, got = ic.solve_W(want_mdp, g), ic.solve_W(got_mdp, g)
    assert np.array_equal(got.W, want.W) and got.policy == want.policy
    assert got.trace == want.trace
    want, got = ic.policy_iteration(want_mdp, g), ic.policy_iteration(got_mdp, g)
    assert got.policy == want.policy
    assert [k for k, _ in got.trace] == [k for k, _ in want.trace]
    if bitwise:
        assert np.array_equal(got.W, want.W) and got.trace == want.trace
    else:
        assert np.all(np.abs(got.W - want.W) <= 1e-14 * (1.0 + np.abs(want.W)))


def _pooled(monkeypatch, n_runs):
    """Every state-dependent pass splits its chunks into ``n_runs`` runs."""
    monkeypatch.setattr(bellman, "_SWEEP_SPLIT_CELLS", 0)
    monkeypatch.setattr(bellman, "_usable_cores", lambda: n_runs)


@pytest.mark.parametrize("rows", [1, 2, 3, "n_states"])
def test_sweep_blocks_are_bitwise_the_full_table(monkeypatch, scale_mdp, rows):
    k = scale_mdp.n_states if rows == "n_states" else rows
    mdp = with_sweep_chunks(scale_mdp, k)
    assert mdp.landing_states is None
    edges = [b[:2] for b in mdp.sweep_blocks]
    assert len(edges) == -(-mdp.n_states // k) and edges[0][0] == 0
    assert edges[-1][1] == mdp.n_states
    assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
    # each chunk views the pair arrays, and the chunks stack to the kernel
    for _, _, block in mdp.sweep_blocks:
        assert np.shares_memory(block.data, scale_mdp.next_weights)
        assert np.shares_memory(block.indices, scale_mdp.next_states)
    stacked = sparse.vstack([block for _, _, block in mdp.sweep_blocks],
                            format="csr")
    _assert_csr_equal(stacked, csr_kernel(scale_mdp))
    sol = ic.policy_iteration(scale_mdp, [G_STAR])
    _pooled(monkeypatch, 3)  # the chunks in three runs, two through the pool
    _assert_sweep_is_the_reference(mdp, [G_STAR], sol)
    _assert_solvers_agree(scale_mdp, mdp, [G_STAR])


@pytest.mark.parametrize("mdp_name", ["small_mdp", "j2_mdp"])
def test_state_free_kernel_is_swept_once_per_action(request, mdp_name):
    # every state lands where state 0 does: the sweep forms state 0's row
    # of Q from row 0's landing pairs and broadcasts it over the states
    mdp = request.getfixturevalue(mdp_name)
    g = np.full(mdp.n_constraints, G_STAR)
    S = assert_landing_states(mdp, declared=True)
    assert S.tolist() == [0, 1]  # the reset to 0 and never impulse
    # the declared constant reset stores state 0's row, broadcast
    assert mdp.next_states.strides[0] == mdp.next_weights.strides[0] == 0
    _assert_sweep_is_the_reference(mdp, g, ic.policy_iteration(mdp, g))
    # a forced chunk is a contiguous copy of the broadcast pairs
    blocks = with_sweep_chunks(mdp, mdp.n_states)
    assert blocks.landing_states is None
    (_, _, kernel), = blocks.sweep_blocks
    _assert_csr_equal(kernel, csr_kernel(mdp))
    _assert_solvers_agree(blocks, mdp, g, bitwise=False)


@pytest.fixture(scope="module")
def verify_800():
    """The verify-800 centre: the fluid config with d = 0.5 at 800 x 800."""
    return ic.discretize(*ic.problem_from_config(fluid_doc(0.5, 800, 5.0)))


def test_large_state_free_table_is_swept_in_row_chunks(verify_800):
    # 800 x 801 cells: chunks of 65536 // 801 = 81 rows, the last one 71
    mdp = verify_800
    assert mdp.landing_states is not None
    rows = model._BLOCK_ELEMENTS // mdp.n_actions
    assert (rows, mdp.n_states % rows) == (81, 71)
    assert [(hi - lo, kernel) for lo, hi, kernel in mdp.sweep_blocks] \
        == [(81, None)] * 9 + [(71, None)]
    cost = combined_cost(mdp, [G_STAR])
    sol = ic.policy_iteration(mdp, [G_STAR])
    tied = np.floor(2.0 * cost) / 2.0  # W = 0 makes Q this table
    states = np.arange(mdp.n_states)
    for W, c in ((sol.W, cost), (np.zeros(mdp.n_states), tied)):
        q = mdp.w_lo[0] * W[mdp.next_lo[0]] + mdp.w_hi[0] * W[mdp.next_hi[0]]
        q *= mdp.survival
        q = q + c
        for flat in (sol.policy.flat, None):
            got = bellman._sweep(mdp, W, c, flat)
            assert np.array_equal(got[0], q.argmin(axis=1))
            assert np.array_equal(got[1], q.min(axis=1))
            assert (got[2] is None if flat is None
                    else np.array_equal(got[2], q[states, flat]))
    # the chunks reuse one small buffer: no second table is written
    bellman._sweep(mdp, sol.W, cost, sol.policy.flat)  # warm
    peak, _ = traced_peak(lambda: bellman._sweep(mdp, sol.W, cost,
                                                 sol.policy.flat))
    assert peak < 0.4 * cost.nbytes, peak / cost.nbytes


@pytest.fixture(scope="module")
def scale_800():
    """custom_j2 with the scale reset (factor 0.5) at 800 x 800."""
    doc = custom_j2_doc(0.5, 800)
    doc["reset"] = {"type": "scale", "factor": 0.5}
    return ic.discretize(*ic.problem_from_config(doc))


def test_large_state_dependent_sweep_keeps_only_chunks(scale_800):
    # each chunk's product, then its Q, is 81 rows: well under a table, on
    # every core at once too
    mdp = scale_800
    assert mdp.landing_states is None and len(mdp.sweep_blocks) == 10
    g = np.ones(mdp.n_constraints)
    cost = combined_cost(mdp, g)
    W = np.linspace(0.0, 1.0, mdp.n_states)
    flat = np.zeros(mdp.n_states, dtype=np.intp)
    bellman._sweep(mdp, W, cost, flat)  # warm
    peak, _ = traced_peak(lambda: bellman._sweep(mdp, W, cost, flat))
    assert peak < 0.4 * cost.nbytes, peak / cost.nbytes


@pytest.mark.parametrize("landing", ["constant", "last bit", "next interval"])
def test_one_state_off_the_shared_landing_is_not_state_free(landing):
    # the identity flow lands state i's impulses at reset(x_i); the reset is
    # 0.5 everywhere but at state 7, where it moves one weight by its last
    # bit, or the landing's interval with the same weights (1/2, 1/2).  Only
    # a declared ConstantReset is state-free: this Python map takes the
    # general path even where it is constant
    odd = {"constant": 0.5, "last bit": np.nextafter(0.5, 1.0),
           "next interval": 1.5}[landing]
    prob = ic.ImpulseProblem(
        flow=lambda x, t: x + 0.0 * t,
        reset=lambda y, a: np.where(y == 7.0, odd, 0.5),
        gradual_costs=(lambda x: 1.0 + x, 0.5),
        impulse_costs=(lambda y, a: 1.0 + 0.0 * y, lambda y, a: 0.0 * y),
        alpha=1.0, x0=0.0, bounds=(1.0,), actions=("a",))
    mdp = ic.discretize(prob, ic.GridSpec.uniform(0.0, 29.0, 30, 2.0, 20, 0.01))
    S = assert_landing_states(mdp, declared=False)
    assert (S is None) == (landing != "constant")
    _assert_sweep_is_the_reference(mdp, [1.0], ic.policy_iteration(mdp, [1.0]))


def test_sweep_takes_back_blocks_a_busy_pool_has_not_started(monkeypatch,
                                                             scale_mdp):
    mdp = with_sweep_chunks(scale_mdp, 40)
    assert len(mdp.sweep_blocks) == 3 and mdp.landing_states is None
    W = np.linspace(0.0, 1.0, mdp.n_states)
    cost = combined_cost(mdp, [1.0])
    want = bellman._sweep(scale_mdp, W, cost)
    _pooled(monkeypatch, 3)
    release = threading.Event()
    pool = bellman._executor()
    busy = [pool.submit(release.wait, 30.0) for _ in range(pool._max_workers)]
    try:
        got = bellman._sweep(mdp, W, cost)  # would wait 30 s on a busy pool
        assert not any(f.done() for f in busy)
    finally:
        release.set()
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_sweeps_with_its_own_pool(monkeypatch, scale_mdp):
    # the child inherits the pool object but not its worker threads: a task
    # submitted to that pool would never run, so the child waits with a cap
    mdp = with_sweep_chunks(scale_mdp, 40)
    assert len(mdp.sweep_blocks) == 3 and mdp.landing_states is None
    _pooled(monkeypatch, 3)
    W = np.linspace(0.0, 1.0, mdp.n_states)
    cost = combined_cost(mdp, [1.0])
    want = bellman._sweep(mdp, W, cost)  # the pool and its worker exist now
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = bellman._sweep(mdp, W, cost)
            bellman._executor().submit(int).result(timeout=20.0)
            code = 0 if all(np.array_equal(a, b)
                            for a, b in zip(got[:2], want[:2])) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's sweep did not finish within 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


# -- value iteration's action elimination against full sweeps -------------


def _dense_solve_W(mdp, g, cfg=ic.BellmanConfig()):
    """``solve_W`` with a full sweep every time: the reference that its
    action elimination must match bitwise."""
    cost = combined_cost(mdp, g)
    W = np.zeros(mdp.n_states)
    sup_change, trace, iterations = math.inf, [], 0
    for k in range(1, cfg.max_iterations + 1):
        _, W_new, _ = bellman._sweep(mdp, W, cost)
        assert not np.any(W_new < W)
        sup_change = float(np.max(W_new - W))
        iterations = k
        trace.append((k, sup_change))
        W = W_new
        if sup_change <= cfg.tolerance:
            break
    flat, _, _ = bellman._sweep(mdp, W, cost)
    return ic.BellmanSolution(
        W=W, policy=ic.StationaryPolicy(flat, mdp.n_labels),
        iterations=iterations, converged=sup_change <= cfg.tolerance,
        residual=sup_change, trace=tuple(trace))


def _assert_bitwise(got, want):
    """Same W (bit patterns), policy, iterations, flag, residual and trace."""
    assert np.array_equal(got.W.view(np.uint64), want.W.view(np.uint64))
    assert got.policy == want.policy
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert math.copysign(1.0, got.residual) == math.copysign(1.0, want.residual)
    assert got.residual == want.residual and got.trace == want.trace


class _Spy:
    """Records the results of bellman's function ``name`` while it is
    patched through ``monkeypatch``."""

    def __init__(self, monkeypatch, name):
        self.results, real = [], getattr(bellman, name)

        def spy(*args, **kwargs):
            self.results.append(real(*args, **kwargs))
            return self.results[-1]

        monkeypatch.setattr(bellman, name, spy)

    @property
    def calls(self):
        return len(self.results)


@st.composite
def _drawn_solves(draw):
    """(config document, g, max_iterations): 10-40 states, one or two
    constraints, a constant (state-free) or scale reset, g from 0 to 1e3."""
    J = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(10, 40))
    top = draw(st.floats(1.0, 5.0))
    if draw(st.sampled_from(["constant", "scale"])) == "constant":
        reset = {"type": "constant", "value": draw(st.floats(0.0, top))}
    else:
        reset = {"type": "scale", "factor": draw(st.floats(0.0, 0.9))}

    def rate():
        return {"type": "polynomial", "coeffs": [draw(st.floats(0.0, 1.0)),
                                                 draw(st.floats(0.1, 2.0))]}

    doc = {
        "model": "custom", "alpha": draw(st.floats(0.25, 2.0)), "x0": 0.0,
        "flow": {"type": draw(st.sampled_from(["drift", "exponential_decay"])),
                 "rate": draw(st.floats(0.25, 2.0))},
        "reset": reset, "actions": draw(st.sampled_from([["a"], ["a", "b"]])),
        "bounds": [1.0] * J,
        "gradual_costs": [rate() for _ in range(J + 1)],
        "impulse_costs": [{"type": "constant", "value": v} for v in (
            [draw(st.floats(0.1, 2.0))]
            + [draw(st.floats(0.0, 1.0)) for _ in range(J)])],
        "grid": {"state_min": 0.0, "state_max": top, "state_n": n,
                 "theta_max": top, "theta_n": n, "quadrature_step": 0.01},
    }
    g = draw(st.lists(st.one_of(st.floats(0.0, 2.0), st.floats(2.0, 1e3)),
                      min_size=J, max_size=J))
    return doc, g, draw(st.sampled_from([100_000, 8]))


@pytest.mark.filterwarnings("ignore:.*clamped to the boundary:RuntimeWarning")
@settings(max_examples=60, deadline=2000, derandomize=True)
@given(drawn=_drawn_solves())
def test_elimination_is_bitwise_full_sweeps_on_drawn_problems(drawn):
    doc, g, cap = drawn
    mdp = ic.discretize(*ic.problem_from_config(doc))
    assert (mdp.landing_states is None) == (doc["reset"]["type"] == "scale")
    cfg = ic.BellmanConfig(max_iterations=cap)
    want = _dense_solve_W(mdp, g, cfg)
    _assert_bitwise(ic.solve_W(mdp, g, cfg), want)
    # a small table keeps few cells; with room for all of them the
    # elimination starts as soon as the changes shrink, and with a zero
    # margin every state whose value still rises is swept in full
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bellman, "_KEPT_SHARE", 1)
        _assert_bitwise(ic.solve_W(mdp, g, cfg), want)
        mp.setattr(bellman, "_tail_margin", lambda prev, last: 0.0)
        _assert_bitwise(ic.solve_W(mdp, g, cfg), want)


@pytest.mark.parametrize("mdp_name", ["small_mdp", "j2_mdp", "scale_mdp"])
def test_states_above_their_cut_are_swept_in_full(monkeypatch, request,
                                                  mdp_name):
    # a zero margin keeps only each state's minimizers, so every state whose
    # value still rises exceeds its cut on the next sweep and is swept in full
    mdp = request.getfixturevalue(mdp_name)
    g = np.full(mdp.n_constraints, G_STAR)
    want = _dense_solve_W(mdp, g)
    monkeypatch.setattr(bellman, "_tail_margin", lambda prev, last: 0.0)
    monkeypatch.setattr(bellman, "_KEPT_SHARE", 1)
    kept = _Spy(monkeypatch, "_kept_sweep")
    _assert_bitwise(ic.solve_W(mdp, g), want)
    assert any(cells is None for _, _, cells in kept.results)


@pytest.fixture(scope="module")
def fluid_1600():
    """The fluid config with d = 0.5 at 1600 x 1600."""
    return ic.discretize(*ic.problem_from_config(fluid_doc(0.5, 1600, 5.0)))


@pytest.mark.parametrize("g", [1.0, 4.0])
@pytest.mark.parametrize("mdp_name", ["verify_800", "fluid_1600"])
def test_elimination_is_bitwise_full_sweeps_on_large_grids(
        monkeypatch, request, mdp_name, g):
    mdp = request.getfixturevalue(mdp_name)
    want = _dense_solve_W(mdp, [g])
    dense = _Spy(monkeypatch, "_sweep")
    kept = _Spy(monkeypatch, "_kept_sweep")
    _assert_bitwise(ic.solve_W(mdp, [g]), want)
    # the first sweeps are full ones, the rest run on the kept cells
    assert dense.calls <= 6 < kept.calls, (dense.calls, kept.calls)
    assert dense.calls + kept.calls < want.iterations + 1


@pytest.fixture(scope="module")
def scale_400():
    """custom_j2 with the scale reset (factor 0.5) at 400 x 400."""
    doc = custom_j2_doc(0.5, 400)
    doc["reset"] = {"type": "scale", "factor": 0.5}
    return ic.discretize(*ic.problem_from_config(doc))


def test_a_failed_elimination_try_is_the_sweep(monkeypatch, scale_400):
    # at g = ones the first tries find more than 1/32 of the table near the
    # minima: each stops keeping cells and finishes as the sweep, so no
    # sweep passes over the table twice
    mdp = scale_400
    g = np.ones(mdp.n_constraints)
    want = _dense_solve_W(mdp, g)
    real, passes, failed = bellman._reduce, [], []

    def spy(*args, margin=None, **kwargs):
        out = real(*args, margin=margin, **kwargs)
        passes.append(margin)
        if margin is not None:  # a try: did it keep too many cells?
            failed.append(out[3] is None)
        return out

    monkeypatch.setattr(bellman, "_reduce", spy)
    before = []  # passes made before each iterate
    got = ic.solve_W(mdp, g, on_iterate=lambda k, W: before.append(len(passes)))
    _assert_bitwise(got, want)
    per_sweep = np.diff(before + [len(passes)])
    assert per_sweep.max() == 1 and per_sweep.sum() == len(passes)
    assert failed[:4] == [True] * 4 and not failed[-1], failed


def test_a_sweep_that_changes_nothing_gives_the_policy(monkeypatch, verify_800):
    # at g = 0 the first sweep from W = 0 changes nothing: its minimizers
    # are the greedy policy, and no second sweep runs
    want = _dense_solve_W(verify_800, [0.0])
    dense = _Spy(monkeypatch, "_sweep")
    got = ic.solve_W(verify_800, [0.0])
    assert dense.calls == 1 and got.iterations == 1 and got.residual == 0.0
    _assert_bitwise(got, want)
