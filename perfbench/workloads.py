"""Seeded workloads: instance generators, CLI arguments and correctness gates.

Each workload turns a seed into a sequence of instances.  An instance is a
config document written to a file; the program sees only that file, through
``impulsecontrol.cli.main``.  The drawn parameters are kept with the instance
so every result names the inputs it came from.

Why these four workloads (each stresses a different layer, and each has a
partner on which a given change should read "no change"):

* ``fluid-accept``: the acceptance fluid problem (alpha = h = K = 1) with
  d in [0.45, 0.55], 400x400 grid on [0, 4x*], theta_max = 5.  Candidate
  enumeration dominates: its random fill runs to the cap although the product
  of the minimizer-set sizes is 2.  The dual search is ~44 golden-section
  evaluations of ~19 sweeps each.  The band keeps that mechanism in place.
* ``fluid-tight``: d in [0.09, 0.11] keeps g* near 50, 300x300 grid on
  [0, 4x*], theta_max = 4x*.  Bellman sweeps are ~95% of the wall (median
  ~110 sweeps per solve) and the structured candidates fill the enumeration
  cap, so kernel and stopping-rule changes show here and enumeration changes
  must not.
* ``custom-j2``: the two-constraint custom config from the README (drift,
  reset to 0, polynomial and piecewise-constant rates, so ``discretize`` takes
  its Simpson path), 200x200 on [0, 4], bounds (d1, 1.9) with d1 in
  [0.47, 0.53].  The only workload with projected ascent: 301 short solves
  and ~370 policy evaluations.  The band keeps constraint 2 inactive and the
  solve certifying; at d = (0.5, 1.5) the seed code ends in
  ``MixtureInfeasibleError`` after the full ascent and 5 slack escalations,
  so a wider band would measure failures instead of work.
* ``verify-800``: ``verify`` on the fluid config at 800x800 (d from the
  fluid-accept band).  No dual maximization and no mixture: discretize and
  the independent checks (occupation measures, oracle simulation, 5 dual
  values) are the work, so a dual-layer change must read "no change" here.
  One 800x801 table is 5 MB, above the L2 cache, while a 300x301 table
  (0.7 MB) fits in it.

Not a workload: the infeasible-bound config of the dual test
``test_unbounded_dual_reports_bracket_failure``.  With the default
``DualConfig`` it grinds for more than 60 s without raising
``DualBracketError`` (the Bellman stopping rule is absolute, so solves at
huge multipliers hit the iteration cap), so it cannot be run 22 times per
benchmark pass.  It becomes a workload once bad inputs fail fast.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from impulsecontrol import cli, fluidq, model
from impulsecontrol.bellman import StationaryPolicy
from impulsecontrol.policy_eval import occupation_measure, policy_from_table

# criterion-1 tolerances of the acceptance suite, relative to fluidq
FLUID_G_TOL = 1e-2
FLUID_V0_TOL = 1e-2
FLUID_V1_TOL = 5e-3
# mixture costs re-evaluated through occupation measures vs. the report
MIXTURE_REEVAL_TOL = 1e-8

SOLVE_SCHEMA = "solve_report.schema.json"


@dataclass
class Instance:
    """One generated input: the drawn parameters and the config document."""

    index: int
    params: dict
    doc: dict


@dataclass
class Outcome:
    """What one ``cli.main`` call produced and what the gate found."""

    exit_code: int
    failures: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # name -> relative error


@dataclass(frozen=True)
class Workload:
    """A named instance generator plus the command and gate it runs.

    Each instance draws one parameter (``param``) from ``band``; ``make_doc``
    turns the drawn value into the config document the program sees.
    """

    name: str
    command: str
    param: str
    band: tuple
    make_doc: Callable[[float], dict]
    check: Callable  # (Instance, mdp, output text, exit code) -> Outcome
    warm_doc: dict   # tiny instance that loads lazy imports before timing
    trace_instances: int

    def pairs(self, seed: int):
        """Endless deterministic sequence of instance pairs for one seed.

        A pair mirrors one uniform draw about the centre of the band (one
        value in each half).  Wall time moves with the drawn parameter (by
        ~25% across the fluid-tight band), and runs measure whole pairs, so
        the median of a run is not set by where its few draws fell.
        """
        rng = random.Random(seed)
        lo, hi = self.band
        i = 0
        while True:
            offset = 0.5 * (hi - lo) * rng.random()
            values = [lo + offset, hi - offset]
            rng.shuffle(values)
            pair = []
            for value in values:
                pair.append(Instance(i, {self.param: value}, self.make_doc(value)))
                i += 1
            yield pair


def _grid(state_max, n, theta_max) -> dict:
    return {"state_min": 0.0, "state_max": float(state_max), "state_n": n,
            "theta_max": float(theta_max), "theta_n": n,
            "quadrature_step": 0.01}


def _fluid_doc(d: float, n: int, theta_max: float | None) -> dict:
    """Fluid benchmark on [0, 4x*]; theta_max None means 4x* as well."""
    x_star = fluidq.solve_analytic(fluidq.FluidParams(1.0, 1.0, 1.0, d)).x_star
    tmax = 4.0 * x_star if theta_max is None else theta_max
    return {"model": "fluid", "alpha": 1.0, "h": 1.0, "K": 1.0, "d": d,
            "x0": 0.0, "grid": _grid(4.0 * x_star, n, tmax)}


def _custom_doc(d1: float, n: int) -> dict:
    """The README two-constraint custom config with bounds (d1, 1.9)."""
    return {
        "model": "custom", "alpha": 1.0, "x0": 0.0,
        "flow": {"type": "drift", "rate": 1.0},
        "reset": {"type": "constant", "value": 0.0},
        "actions": ["flush"],
        "bounds": [d1, 1.9],
        "gradual_costs": [
            {"type": "constant", "value": 0.0},
            {"type": "polynomial", "coeffs": [0.0, 1.0]},
            {"type": "piecewise_constant", "breakpoints": [0.8],
             "values": [2.0, 0.2]},
        ],
        "impulse_costs": [
            {"type": "constant", "value": 1.0},
            {"type": "constant", "value": 0.0},
            {"type": "constant", "value": 0.0},
        ],
        "grid": _grid(4.0, n, 4.0),
    }


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def _schema(name: str) -> dict:
    path = Path(cli.__file__).parent / "schemas" / name
    return json.loads(path.read_text())


def _solve_report(text: str, exit_code: int, out: Outcome):
    """Parse and schema-check a solve report; None when unusable."""
    if exit_code != cli.EXIT_OK:
        out.failures.append(f"exit code {exit_code}")
        return None
    try:
        report = json.loads(text)
        jsonschema.validate(report, _schema(SOLVE_SCHEMA))
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        out.failures.append(f"report invalid: {str(exc).splitlines()[0]}")
        return None
    return report


def check_fluid_solve(inst: Instance, mdp, text: str, exit_code: int) -> Outcome:
    """Criterion-1 tolerances against the closed form in ``fluidq``."""
    out = Outcome(exit_code)
    report = _solve_report(text, exit_code, out)
    if report is None:
        return out
    ref = fluidq.solve_analytic(
        fluidq.FluidParams(1.0, 1.0, 1.0, inst.doc["d"]))
    errs = {"g_rel_err": _rel(report["g_star"][0], ref.g_star),
            "v0_rel_err": _rel(report["costs"][0], ref.V0),
            "v1_rel_err": _rel(report["costs"][1], ref.V1)}
    out.errors = errs
    for key, tol in (("g_rel_err", FLUID_G_TOL), ("v0_rel_err", FLUID_V0_TOL),
                     ("v1_rel_err", FLUID_V1_TOL)):
        if not errs[key] <= tol:
            out.failures.append(f"{key} {errs[key]:.3e} > {tol:g}")
    return out


def _policy_from_rows(mdp, rows) -> StationaryPolicy:
    text = "\n".join(f"{s!r} {t} {a}" for s, t, a in rows)
    return policy_from_table(mdp, text)


def check_custom_solve(inst: Instance, mdp, text: str, exit_code: int) -> Outcome:
    """Certified, converged, and mixture costs reproduced by occupation measures."""
    out = Outcome(exit_code)
    report = _solve_report(text, exit_code, out)
    if report is None:
        return out
    if report["certificates"]["ok"] is not True:
        out.failures.append("certificates not ok")
    if report["converged"] is not True:
        out.failures.append("not converged")
    mix = report["mixture"]
    total = np.zeros(mdp.n_costs)
    for w, rows in zip(mix["weights"], mix["policies"]):
        mu = occupation_measure(mdp, _policy_from_rows(mdp, rows))
        total += w * np.tensordot(mu.mass, mdp.costs, axes=([0, 1], [1, 2]))
    err = max(_rel(float(v), float(r)) for v, r in zip(total, report["costs"]))
    out.errors = {"mixture_reeval_rel_err": err}
    if not err <= MIXTURE_REEVAL_TOL:
        out.failures.append(
            f"mixture costs re-evaluated differ by {err:.3e} relative")
    return out


def check_verify(inst: Instance, mdp, text: str, exit_code: int) -> Outcome:
    """Exit 0 and every check line reported PASS."""
    out = Outcome(exit_code)
    if exit_code != cli.EXIT_OK:
        out.failures.append(f"exit code {exit_code}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    checks = lines[:-1]
    if not checks or not lines[-1].startswith("OK "):
        out.failures.append(f"verify summary line: {lines[-1] if lines else ''!r}")
    bad = [ln for ln in checks if not ln.startswith("PASS ")]
    if bad:
        out.failures.append(f"{len(bad)} check(s) not PASS: {bad[0]}")
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload("fluid-accept", "solve", "d", (0.45, 0.55),
                 lambda d: _fluid_doc(d, 400, 5.0), check_fluid_solve,
                 _fluid_doc(0.5, 40, 5.0), 1),
        Workload("fluid-tight", "solve", "d", (0.09, 0.11),
                 lambda d: _fluid_doc(d, 300, None), check_fluid_solve,
                 _fluid_doc(0.1, 40, None), 1),
        Workload("custom-j2", "solve", "d1", (0.47, 0.53),
                 lambda d1: _custom_doc(d1, 200), check_custom_solve,
                 _custom_doc(0.5, 40), 3),
        Workload("verify-800", "verify", "d", (0.45, 0.55),
                 lambda d: _fluid_doc(d, 800, 5.0), check_verify,
                 _fluid_doc(0.5, 40, 5.0), 3),
    )
}


def setup(config_text: str):
    """Config document to ``DiscreteMDP``: the path ``setup_s`` times."""
    problem, grid = model.problem_from_config(json.loads(config_text))
    model.validate(problem, grid)
    return model.discretize(problem, grid)


def run_cli(workload: Workload, config: Path, report: Path) -> tuple[int, str]:
    """One user command, in process.  Returns (exit code, report text)."""
    argv = [workload.command, "--config", str(config), "--out", str(report)]
    report.unlink(missing_ok=True)
    if workload.command == "verify":
        # verify prints its check lines instead of writing --out
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    code = cli.main(argv)
    text = report.read_text() if report.exists() else ""
    return code, text
