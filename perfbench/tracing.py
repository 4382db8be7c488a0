"""Spans around the public functions each layer exposes, and per-layer metrics.

The program is not changed: :class:`Tracer` replaces the module attributes
that the layers call through (``impulsecontrol.dual.solve_W``,
``impulsecontrol.cli.discretize``, ...) with timing wrappers while a traced
call runs, and puts the originals back afterwards.  Spans are kept in memory
(name, start, end, parent span, instance id, plus a few result attributes)
and written to a file when the benchmark ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

from impulsecontrol import cli, dual, policy_eval

ROOT_SPAN = "cli.main"  # one per traced command call, opened by the harness


def _sweeps(sol) -> dict:
    return {"sweeps": int(sol.iterations), "converged": bool(sol.converged)}


def _mdp_bytes(mdp) -> dict:
    # arrays one Bellman sweep reads: the kernel tables and one combined
    # cost table (computed from sizes; temporaries and cache misses ignored)
    return {"sweep_bytes": int(mdp.next_lo.nbytes + mdp.next_hi.nbytes
                               + mdp.w_lo.nbytes + mdp.w_hi.nbytes
                               + mdp.costs[0].nbytes + mdp.survival.nbytes)}


def _lp(weights) -> dict:
    return {"infeasible": weights is None}


def _constrained(result) -> dict:
    return {"candidates": len(result.F),
            "support": len(result.mixture.weights)}


# (module, attribute, span name, attributes taken from the return value)
PATCHES = (
    (cli, "discretize", "model.discretize", _mdp_bytes),
    (dual, "solve_W", "bellman.solve_W", _sweeps),
    (cli, "solve_W", "bellman.solve_W", _sweeps),
    (dual, "argmin_set", "bellman.argmin_set", None),
    (dual, "dual_value", "dual.dual_value", None),
    (cli, "dual_value", "dual.dual_value", None),
    (dual, "maximize_dual", "dual.maximize_dual", None),
    (dual, "mix_weights", "dual.mix_weights", _lp),
    (cli, "solve_constrained", "dual.solve_constrained", _constrained),
    (dual, "eval_policy", "policy_eval.eval_policy", None),
    (cli, "eval_policy", "policy_eval.eval_policy", None),
    (policy_eval, "eval_policy", "policy_eval.eval_policy", None),
    (dual, "eval_mixture", "policy_eval.eval_mixture", None),
    (cli, "occupation_measure", "policy_eval.occupation_measure", None),
    (cli, "check_characteristic", "policy_eval.check_characteristic", None),
    (cli, "simulate_oracle", "policy_eval.simulate_oracle", None),
    (cli, "render_json", "cli.render_json", None),
)

CHECK_SPANS = ("policy_eval.occupation_measure",
               "policy_eval.check_characteristic",
               "policy_eval.simulate_oracle")


class Tracer:
    """In-memory span recorder; one per traced benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, instance, attrs_of=None):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": None if parent is None else parent["id"],
               "instance": instance if parent is None else parent["instance"],
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # recursion into the same function (render_json) is one span
            if not self._stack or self._stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            with self.span(name, None) as rec:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    rec.update(attrs_of(result))
                return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced attribute; restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        try:
            for mod, attr, name, attrs_of in PATCHES:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), attrs_of))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(spans: list[dict], root_id: int, command: str) -> dict:
    """Per-layer numbers for the spans under one root ``cli.main`` span."""
    children: dict[int, list[dict]] = {}
    under = {root_id}
    for s in spans:  # spans are recorded in start order, parents first
        if s["parent"] in under:
            under.add(s["id"])
            children.setdefault(s["parent"], []).append(s)
    mine = [s for s in spans if s["id"] in under and s["id"] != root_id]

    def named(name):
        return [s for s in mine if s["name"] == name]

    def total(name):
        return sum(_dur(s) for s in named(name))

    def self_time(s):
        return _dur(s) - sum(_dur(c) for c in children.get(s["id"], ()))

    solves = named("bellman.solve_W")
    sweeps = sum(s["sweeps"] for s in solves)
    solve_s = sum(_dur(s) for s in solves)
    discretized = named("model.discretize")
    constrained = named("dual.solve_constrained")
    cand_evals = sum(1 for s in mine if s["name"] == "policy_eval.eval_policy"
                     and any(s["parent"] == c["id"] for c in constrained))
    support = sum(s["support"] for s in constrained)
    resolve = [s for s in solves if s["parent"] == root_id] if command == "solve" else []
    return {
        "model.discretize_s": total("model.discretize"),
        "bellman.solve_calls": len(solves),
        "bellman.solve_s": solve_s,
        "bellman.sweeps": sweeps,
        "bellman.sweeps_per_solve": (statistics.median(s["sweeps"] for s in solves)
                                     if solves else 0),
        "bellman.sweep_us": 1e6 * solve_s / sweeps if sweeps else 0.0,
        "bellman.sweep_bytes": discretized[0]["sweep_bytes"] if discretized else 0,
        "bellman.nonconverged": sum(1 for s in solves if not s["converged"]),
        "bellman.argmin_calls": len(named("bellman.argmin_set")),
        "dual.lp_calls": len(named("dual.mix_weights")),
        "dual.lp_infeasible": sum(1 for s in named("dual.mix_weights")
                                  if s["infeasible"]),
        "dual.evaluations": len(named("dual.dual_value")),
        "dual.maximize_s": total("dual.maximize_dual"),
        "dual.mixture_self_s": sum(self_time(s) for s in constrained),
        "dual.candidates": sum(s["candidates"] for s in constrained),
        "dual.candidate_yield": support / cand_evals if cand_evals else 0.0,
        "policy_eval.eval_calls": len(named("policy_eval.eval_policy")),
        "policy_eval.eval_s": total("policy_eval.eval_policy"),
        "policy_eval.checks_s": sum(total(n) for n in CHECK_SPANS),
        "cli.resolve_s": sum(_dur(s) for s in resolve),
        "cli.render_s": total("cli.render_json"),
    }


UNITS = {
    "model.discretize_s": "s",
    "bellman.solve_calls": "count",
    "bellman.solve_s": "s",
    "bellman.sweeps": "count",
    "bellman.sweeps_per_solve": "count",
    "bellman.sweep_us": "us",
    "bellman.sweep_bytes": "B_computed",
    "bellman.nonconverged": "count",
    "bellman.argmin_calls": "count",
    "dual.lp_calls": "count",
    "dual.lp_infeasible": "count",
    "dual.evaluations": "count",
    "dual.maximize_s": "s",
    "dual.mixture_self_s": "s",
    "dual.candidates": "count",
    "dual.candidate_yield": "ratio",
    "policy_eval.eval_calls": "count",
    "policy_eval.eval_s": "s",
    "policy_eval.checks_s": "s",
    "cli.resolve_s": "s",
    "cli.render_s": "s",
    "trace.overhead_s": "s",
}

COUNTS = tuple(k for k, u in UNITS.items() if u == "count")
