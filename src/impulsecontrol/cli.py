"""Command-line front end.

Commands: ``solve`` (full constrained pipeline), ``analytic`` (closed-form
fluid benchmark), ``dual-curve`` (CSV of dual evaluations over a multiplier
grid), ``eval`` (cost vector of a policy table), ``verify`` (invariant
suite).  JSON reports and CSV curves are emitted with 17 significant digits;
every JSON report names the schema file it validates against (shipped under
``impulsecontrol/schemas``).

Exit codes: 0 success, 2 malformed configuration (or an input file that
cannot be read, or an output file that cannot be written), 3 solvability
validation failure, 4 non-converged solve (or, after its report, a solve
whose certificates fail), 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import reprlib
import sys
import time

import numpy as np

from . import model
from .model import ConfigError, discretize, problem_from_config, validate
from .bellman import BellmanConfig, StationaryPolicy, policy_iteration, solve_W
from .policy_eval import (check_characteristic, eval_policy, occupation_measure,
                          policy_from_table, policy_rule, simulate_oracle)
from .dual import (MULTIPLIER_TOL, BellmanNotConvergedError, dual_value,
                   search_mdp, solve_constrained)
from . import fluidq

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NOT_CONVERGED = 4
EXIT_VERIFY_FAILED = 5


# ---------------------------------------------------------------------------
# rendering: all numeric output carries 17 significant digits


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return '"INF"' if x > 0 else '"-INF"'
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """``obj`` as indented JSON; floats with 17 digits, +-inf as "INF"/"-INF".

    Exact ``float``, ``str``, ``list``/``tuple`` and ``dict`` leaves and
    nodes take the first branches; numpy scalars and arrays, ``bool``,
    ``int`` and ``None`` the ``isinstance`` chain after them.  Each distinct
    string (an action label, a key) is JSON-encoded once per call.
    """
    return _render(obj, indent, {})


def _render(obj, indent: int, strings: dict) -> str:
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is str:
        text = strings.get(obj)
        if text is None:
            text = strings[obj] = json.dumps(obj)
        return text
    if kind is list or kind is tuple:
        return _render_list(obj, indent, strings)
    if kind is dict:
        if not obj:
            return "{}"
        pad = "\n" + "  " * (indent + 1)
        return ("{" + pad + ("," + pad).join(
            _render(str(k), indent, strings) + ": " + _render(v, indent + 1, strings)
            for k, v in obj.items()) + "\n" + "  " * indent + "}")
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return _render_list(obj, indent, strings)
    if isinstance(obj, dict):
        return _render(dict(obj), indent, strings)
    raise TypeError(f"cannot render {type(obj)!r} into a report")


def _render_list(obj, indent: int, strings: dict) -> str:
    items = [_render(v, indent + 1, strings) for v in obj]
    if not items:
        return "[]"
    pad = "\n" + "  " * (indent + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * indent + "]"


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``out``; a failed write of
    the file is a ConfigError naming it."""
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc.strerror}")


# ---------------------------------------------------------------------------
# configuration loading


def _override(item: str) -> tuple:
    """``--set KEY=VALUE`` as (key, value); VALUE is read as JSON if it parses."""
    if "=" not in item:
        raise argparse.ArgumentTypeError(f"expects KEY=VALUE, got {item!r}")
    key, _, raw = item.partition("=")
    try:
        return key.strip(), json.loads(raw.strip())
    except json.JSONDecodeError:
        return key.strip(), raw.strip()


def _apply_override(doc: dict, key: str, value) -> None:
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def load_config(args: argparse.Namespace) -> dict:
    """The ``--config`` document with every ``--set`` override applied."""
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key, value in args.set:
        _apply_override(doc, key, value)
    return doc


def _bellman_config(tol_scale: float) -> BellmanConfig:
    """Bellman stopping rule with the default tolerance scaled by ``--tol``."""
    try:
        return BellmanConfig(tolerance=1e-9 * tol_scale)
    except ValueError as exc:
        raise ConfigError(f"--tol {tol_scale}: {exc}") from exc


def _policy_rows(mdp, pol: StationaryPolicy) -> list:
    thetas = mdp.theta_points.tolist()
    names = model.label_names(mdp.action_labels)
    return [[x, thetas[t_idx], names[a_idx]]
            for x, (t_idx, a_idx) in zip(mdp.states.tolist(), pol.choice.tolist())]


def _grid_metadata(doc: dict, mdp) -> dict:
    g = dict(doc.get("grid", {}))
    g["clamped_cells"] = int(mdp.clamped_cells)
    return g


# ---------------------------------------------------------------------------
# commands


def _prepare(args: argparse.Namespace, need_delta: bool = True,
             references: bool = False):
    """(doc, problem, grid, mdp, validation report) for a command; the last
    four are None when ``need_delta`` and the impulse costs fail it.
    ``references`` sizes ``verify``'s quadrature references with the tables,
    before either is built."""
    doc = load_config(args)
    problem, grid = problem_from_config(doc)
    report = validate(problem, grid)
    if need_delta and not report.delta_ok:
        for msg in report.messages():
            sys.stderr.write(f"validation: {msg}\n")
        sys.stderr.write(
            "refusing to run the dual pipeline: impulse costs must be bounded "
            "away from zero so that endless zero-wait impulse chains are "
            "infinitely costly\n")
        return doc, None, None, None, None
    try:
        if references:
            model.check_footprint(problem, grid, references=True)
        mdp = discretize(problem, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return doc, problem, grid, mdp, report


def cmd_solve(args: argparse.Namespace) -> int:
    doc, problem, grid, mdp, _ = _prepare(args)
    if mdp is None:
        return EXIT_VALIDATION
    t0 = time.perf_counter()
    try:
        result = solve_constrained(mdp, _bellman_config(args.tol))
    except RuntimeError as exc:
        # a Bellman solve at its cap, an unbounded dual or a failed master LP
        sys.stderr.write(f"solve failed: {exc}\n")
        return EXIT_NOT_CONVERGED
    wall = time.perf_counter() - t0
    sol = result.solution
    if args.bellman_trace is not None:
        lines = ["iteration,residual"]
        lines += [f"{k},{format(r, '.17g')}" for k, r in sol.trace]
        _emit("\n".join(lines), args.bellman_trace)
    regime = ("constrained" if np.any(result.g_star > MULTIPLIER_TOL)
              else "unconstrained")
    report = {
        "schema": "solve_report.schema.json",
        "command": "solve",
        "regime": regime,
        "g_star": [float(g) for g in result.g_star],
        "h_star": float(result.h_star),
        "W0": float(result.W0),
        "costs": [float(v) for v in result.costs.v],
        "bounds": [float(d) for d in mdp.bounds],
        "mixture": {
            "weights": [float(w) for w in result.mixture.weights],
            "policies": [_policy_rows(mdp, p) for p in result.mixture.policies],
        },
        "certificates": result.certificates.as_dict(),
        "dual_evaluations": len(result.trace),
        "bellman_iterations": int(sol.iterations),
        "minimizer_slack": float(result.slack_used),
        # every dual evaluation converged, or the solve raised above
        "converged": True,
        "grid": _grid_metadata(doc, mdp),
        "wall_time_seconds": float(wall),
    }
    _emit(render_json(report), args.out)
    failed = [k[:-3] for k, ok in report["certificates"].items()
              if k.endswith("_ok") and not ok]
    if failed:
        sys.stderr.write(f"solve failed: certificates not met: "
                         f"{', '.join(failed)}\n")
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _fluid_params(doc: dict) -> fluidq.FluidParams:
    if doc.get("model") != "fluid":
        raise ConfigError("the analytic command requires model = 'fluid'")
    values = [model._number(doc, key, "") for key in ("alpha", "h", "K", "d")]
    try:
        return fluidq.FluidParams(*values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_analytic(args: argparse.Namespace) -> int:
    doc = load_config(args)
    params = _fluid_params(doc)
    try:
        sol = fluidq.solve_analytic(params)
    except (ArithmeticError, ValueError) as exc:
        # parameters so extreme that the closed form leaves float range
        raise ConfigError(
            f"the closed form cannot be evaluated for alpha={params.alpha!r}, "
            f"h={params.h!r}, K={params.K!r}, d={params.d!r}: {exc}") from exc
    report = {
        "schema": "analytic_report.schema.json",
        "command": "analytic",
        "params": {"alpha": params.alpha, "h": params.h,
                   "K": params.K, "d": params.d},
        "regime": sol.regime,
        "x_star": sol.x_star,
        "g_star": sol.g_star,
        "V0": sol.V0,
        "V1": sol.V1,
        "W0": sol.W0,
    }
    _emit(render_json(report), args.out)
    return EXIT_OK


def _dual_grid(doc: dict, args: argparse.Namespace, J: int) -> list:
    """Multipliers for ``dual-curve``, each J nonnegative numbers.

    The config's ``dual_grid`` when present, else the ``--g-min``/``--g-max``/
    ``--g-steps`` line (single-constraint problems only).  Each ``dual_grid``
    entry is a number or a list of numbers, read as config numbers are: a
    boolean or a numeric string is refused.
    """
    if "dual_grid" in doc:
        raw = doc["dual_grid"]
        if not isinstance(raw, list):
            raise ConfigError(
                f"'dual_grid' must be a list of multipliers, got {reprlib.repr(raw)}")
        grid_pts = [model._numbers([g] if model._is_number(g) else g,
                                   f"dual_grid[{k}]")
                    for k, g in enumerate(raw)]
    elif J != 1:
        raise ConfigError(
            "dual-curve needs an explicit dual_grid for multi-constraint "
            "problems (use the config 'dual_grid' field)")
    elif args.g_steps < 1:
        raise ConfigError(f"--g-steps must be >= 1, got {args.g_steps}")
    else:
        grid_pts = [np.asarray([g]) for g in
                    np.linspace(args.g_min, args.g_max, args.g_steps)]
    for k, g in enumerate(grid_pts):
        if g.size != J:  # only a dual_grid entry can
            raise ConfigError(
                f"'dual_grid[{k}]' has {g.size} components, expected {J}, "
                f"got {g.tolist()}")
        if not np.all(g >= 0.0):
            raise ConfigError(
                f"dual-curve multiplier {g.tolist()}: every component must "
                "be a nonnegative number")
    return grid_pts


def cmd_dual_curve(args: argparse.Namespace) -> int:
    doc, problem, grid, mdp, _ = _prepare(args)
    if mdp is None:
        return EXIT_VALIDATION
    J = mdp.n_constraints
    grid_pts = _dual_grid(doc, args, J)
    bcfg = _bellman_config(args.tol)
    header = ([f"g_{j + 1}" for j in range(J)] + ["h", "W0"]
              + [f"slack_{j + 1}" for j in range(J)])
    lines = [",".join(header)]
    # the CSV reads values at x0 only, so the solves run where the search does
    search = search_mdp(mdp)
    pt = None
    for g in grid_pts:
        # policy iteration starts from the previous grid point's solution
        try:
            pt = dual_value(search, g, bcfg, None if pt is None else pt.solution)
        except BellmanNotConvergedError as exc:
            sys.stderr.write(f"dual-curve failed: {exc}\n")
            return EXIT_NOT_CONVERGED
        row = ([format(float(x), ".17g") for x in pt.g]
               + [format(pt.h, ".17g"), format(pt.W0, ".17g")]
               + [format(float(s), ".17g") for s in pt.slacks])
        lines.append(",".join(row))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    doc, problem, grid, mdp, _ = _prepare(args, need_delta=False)
    try:
        with open(args.policy) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"policy file not found: {args.policy}")
    except OSError as exc:
        raise ConfigError(f"cannot read policy file {args.policy}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode policy file {args.policy}: {exc}")
    try:
        pol = policy_from_table(mdp, text)
        costs = eval_policy(mdp, pol)
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = {
        "schema": "eval_report.schema.json",
        "command": "eval",
        "costs": [float(v) for v in costs.v],
        "finite": bool(costs.finite),
        "bounds": [float(d) for d in mdp.bounds],
        "feasible": bool(np.all(costs.v[1:] <= np.asarray(mdp.bounds) + 1e-9))
        if mdp.n_constraints else True,
    }
    _emit(render_json(report), args.out)
    return EXIT_OK


def _verify_checks(problem, grid, mdp, tol_scale: float, rep):
    """Yield (name, passed, detail) for the invariant suite; ``rep`` is
    ``validate(problem, grid)``."""
    yield "impulse-cost-positive", rep.delta_ok, f"delta_hat={rep.delta_hat:.6g}"
    yield "costs-bounded", rep.bounded_ok, f"cost_sup={rep.cost_sup:.6g}"
    yield ("flow-identities", rep.flow_ok,
           f"semigroup={rep.semigroup_residual:.3e} identity={rep.identity_residual:.3e}")

    # a state-free kernel's row 0 is every row it stores
    weights = mdp.next_weights if mdp.landing_states is None else mdp.next_weights[:1]
    mass = weights[..., 0] + weights[..., 1]
    mass -= 1.0
    mass_err = float(np.max(np.abs(mass, out=mass)))
    del mass
    nonneg = bool(np.all(weights >= 0.0))
    yield "kernel-mass", mass_err <= 1e-12 and nonneg, f"max|w_lo+w_hi-1|={mass_err:.3e}"

    L = mdp.n_labels
    th = mdp.theta_points
    s_fin = mdp.survival[::L][:-1]
    zero_ok = bool(np.all(mdp.survival[(th.size - 1) * L:] == 0.0))
    one_ok = bool(np.all(mdp.survival[:L] == 1.0))
    mono = bool(np.all(np.diff(s_fin) < 0.0))
    yield ("survival-shape", zero_ok and one_ok and mono,
           "exact kill at INF, exact carry at 0, strictly decreasing between")

    # tabulated costs against the scalar quadrature on a sample of cells
    idxs = model._distinct(np.linspace(0, mdp.n_states - 1, 5).astype(int))
    ks = model._distinct(np.linspace(0, th.size - 1, 5).astype(int))
    worst = 0.0
    for i in idxs:
        for k in ks:
            for a_idx, label in enumerate(mdp.action_labels):
                q = k * L + a_idx
                for j in range(mdp.n_costs):
                    ref = model.stage_cost(problem, float(mdp.states[i]),
                                           float(th[k]), label, j,
                                           step=grid.quadrature_step)
                    got = float(mdp.costs[j, i, q])
                    worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    yield "stage-cost-quadrature", worst <= 1e-8, f"max rel err {worst:.3e}"

    bcfg = _bellman_config(tol_scale)
    ones = np.ones(mdp.n_constraints)
    vi = {}
    for tag, g in (("zero", np.zeros(mdp.n_constraints)), ("ones", ones)):
        sol = vi[tag] = solve_W(mdp, g, bcfg)
        ok = sol.converged and sol.residual <= bcfg.tolerance
        yield (f"bellman-converges-g-{tag}", ok,
               f"iterations={sol.iterations} residual={sol.residual:.3e}")

    # the dual search's policy iteration against value iteration at g = ones
    pi = policy_iteration(mdp, ones, bcfg)
    ref = vi["ones"].W
    rel = float(np.max(np.abs(pi.W - ref) / (1.0 + np.abs(ref))))
    ok = pi.converged and rel <= 1e3 * bcfg.tolerance
    yield ("policy-iteration-agreement", ok,
           f"steps={pi.iterations} max rel diff {rel:.3e}")

    # occupation and oracle identities on a few constant-waiting policies;
    # the feasible ones also bound the dual values below (weak duality)
    m_fin = th.size - 1
    probes = sorted({max(1, m_fin // 8), max(1, m_fin // 4),
                     max(1, m_fin // 2), m_fin - 1})
    d = np.asarray(mdp.bounds, dtype=float)
    occ_ok, occ_detail = True, []
    tri_ok, tri_detail = True, []
    feas_values = []
    for k in probes:
        flat = np.full(mdp.n_states, k * L, dtype=np.intp)
        pol = StationaryPolicy(flat, L)
        costs = eval_policy(mdp, pol)
        if not costs.finite:
            continue
        if np.all(costs.v[1:] <= d + 1e-9):
            feas_values.append(costs.v[0])
        mu = occupation_measure(mdp, pol)
        resid = check_characteristic(mdp, mu)
        occ_ok &= resid <= 1e-9
        dual_costs = mdp.costs.reshape(mdp.n_costs, -1)[:, mu.cells] @ mu.values
        rel = float(np.max(np.abs(dual_costs - costs.v) / (1.0 + np.abs(costs.v))))
        occ_ok &= rel <= 1e-8
        occ_detail.append(f"theta={th[k]:.4g}: char={resid:.2e} dual={rel:.2e}")
        try:
            oracle = simulate_oracle(problem, policy_rule(mdp, pol), horizon=4000,
                                     step=grid.quadrature_step)
        except ValueError as exc:
            # the true flow can leave the clamped grid for an invalid state
            tri_ok = False
            tri_detail.append(f"theta={th[k]:.4g}: {exc}")
            continue
        rel_o = float(np.max(np.abs(oracle.v - costs.v) / (1.0 + np.abs(costs.v))))
        tri_ok &= rel_o <= 1e-6
        tri_detail.append(f"theta={th[k]:.4g}: oracle={rel_o:.2e}")
    yield "occupation-identities", occ_ok, "; ".join(occ_detail)
    yield "oracle-agreement", tri_ok, "; ".join(tri_detail)

    # weak duality: dual values never exceed feasible policy values.  h is
    # evaluated on R, the states x0 can reach (search_mdp), as in the dual
    # search.  With no constraints every multiplier is the empty one, and
    # h = W*(x0)
    search = search_mdp(mdp)
    wd_ok = True
    worst_gap = -math.inf
    detail = "no feasible probe policy"
    scales = (0.0, 0.5, 1.0, 2.0, 4.0) if mdp.n_constraints else (1.0,)
    if feas_values:
        try:
            for scale in scales:
                if scale == 1.0 and pi.converged:
                    # the cold policy iteration above is h's solve at g = ones
                    h = float(pi.W[mdp.x0_index]) - float(ones @ d)
                else:
                    h = dual_value(search, scale * ones, bcfg).h
                gap = h - min(feas_values)
                worst_gap = max(worst_gap, gap)
                wd_ok &= gap <= 10.0 * bcfg.tolerance + 1e-9
            detail = f"max h(g) - V0(feasible) = {worst_gap:.3e}"
        except BellmanNotConvergedError as exc:
            wd_ok, detail = False, str(exc)
    yield "weak-duality", wd_ok, detail


def cmd_verify(args: argparse.Namespace) -> int:
    doc, problem, grid, mdp, rep = _prepare(args, need_delta=False,
                                            references=True)
    failures = 0
    for name, passed, detail in _verify_checks(problem, grid, mdp, args.tol, rep):
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        failures += 0 if passed else 1
    print(f"{'OK' if failures == 0 else 'FAILED'} "
          f"({failures} failing check{'s' if failures != 1 else ''})")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="impulsecontrol",
        description="Constrained impulse control solver and analytic benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="problem definition JSON")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--set", action="append", default=[], type=_override,
                       metavar="KEY=VALUE",
                       help="override a config field (dotted path, repeatable)")
        p.add_argument("--tol", type=float, default=1.0,
                       help="global tolerance scale factor")
        return p

    p_solve = command("solve", cmd_solve, "run the constrained dual pipeline")
    p_solve.add_argument("--bellman-trace", default=None,
                         help="write the final Bellman solve trace CSV here")

    command("analytic", cmd_analytic, "closed-form fluid solution")

    p_curve = command("dual-curve", cmd_dual_curve, "CSV of dual values over a grid")
    p_curve.add_argument("--g-min", type=float, default=0.0)
    p_curve.add_argument("--g-max", type=float, default=2.0)
    p_curve.add_argument("--g-steps", type=int, default=21)

    p_eval = command("eval", cmd_eval, "evaluate a policy table")
    p_eval.add_argument("--policy", required=True, help="policy table file")

    command("verify", cmd_verify, "run the invariant suite")
    return parser


def main(argv=None) -> int:
    """Run one command; returns the process exit status."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
