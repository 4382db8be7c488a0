import argparse
import json
import math
import os
import re
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from importlib import resources

import impulsecontrol as ic
import impulsecontrol.cli as cli
from impulsecontrol import model

from conftest import BANDS, J2_DOC, band_centre_doc, threshold_policy, traced_peak


BASE_DOC = {
    "model": "fluid", "alpha": 1.0, "h": 1.0, "K": 1.0, "d": 0.5, "x0": 0.0,
    "grid": {"state_min": 0.0, "state_max": 5.0, "state_n": 80,
             "theta_max": 5.0, "theta_n": 80, "quadrature_step": 0.01},
}


def _schema(name):
    path = resources.files("impulsecontrol").joinpath("schemas", name)
    return json.loads(path.read_text())


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "fluid.json"
    path.write_text(json.dumps(BASE_DOC))
    return str(path)


def test_solve_report_matches_schema_and_analytic(config_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["solve", "--config", config_file, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, _schema("solve_report.schema.json"))
    assert report["regime"] == "constrained"
    assert report["costs"][1] == pytest.approx(0.5, abs=1e-8)
    assert report["certificates"]["ok"] is True
    assert report["bellman_iterations"] >= 1
    # 17-significant-digit rendering of floats
    assert format(report["h_star"], ".17g") in out.read_text()


def test_analytic_report_matches_schema(config_file, capsys):
    assert cli.main(["analytic", "--config", config_file]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("analytic_report.schema.json"))
    assert report["regime"] == "constrained"
    assert report["g_star"] == pytest.approx(1.8480894645490473, abs=1e-10)


def test_solve_and_analytic_agree_on_regime(config_file, capsys):
    for override, regime in (("d=0.25", "constrained"), ("d=2.0", "unconstrained")):
        assert cli.main(["analytic", "--config", config_file,
                         "--set", override]) == 0
        analytic = json.loads(capsys.readouterr().out)
        assert cli.main(["solve", "--config", config_file,
                         "--set", override]) == 0
        solve = json.loads(capsys.readouterr().out)
        assert analytic["regime"] == regime
        assert solve["regime"] == regime


def test_solve_values_at_boundary_bound(config_file, capsys):
    # d equal to h/alpha^2: never impulsing is optimal
    assert cli.main(["solve", "--config", config_file, "--set", "d=1.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["g_star"][0] <= 1e-4
    assert report["costs"][0] <= 1e-6
    assert report["costs"][1] == pytest.approx(1.0, rel=5e-3)


def test_unconstrained_analytic_reports_inf_threshold(config_file, capsys):
    assert cli.main(["analytic", "--config", config_file, "--set", "d=3.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("analytic_report.schema.json"))
    assert report["x_star"] == "INF" and report["g_star"] == 0.0


def test_dual_curve_csv(config_file, capsys):
    assert cli.main(["dual-curve", "--config", config_file,
                     "--g-min", "0", "--g-max", "3", "--g-steps", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "g_1,h,W0,slack_1"
    assert len(lines) == 8
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert rows[0][:3] == [0.0, 0.0, 0.0]
    # h = W0 - g*d on every row
    for g, h, w0, _ in rows:
        assert h == pytest.approx(w0 - 0.5 * g, abs=1e-12)


def test_dual_curve_multi_constraint_uses_config_grid(tmp_path, capsys):
    doc = {
        "model": "custom", "alpha": 1.0, "x0": 0.0,
        "flow": {"type": "drift", "rate": 1.0},
        "reset": {"type": "constant", "value": 0.0},
        "actions": ["a"], "bounds": [0.5, 1.9],
        "gradual_costs": [
            {"type": "constant", "value": 0.0},
            {"type": "polynomial", "coeffs": [0.0, 1.0]},
            {"type": "piecewise_constant", "breakpoints": [0.8],
             "values": [2.0, 0.2]}],
        "impulse_costs": [
            {"type": "constant", "value": 1.0},
            {"type": "constant", "value": 0.0},
            {"type": "constant", "value": 0.0}],
        "grid": {"state_min": 0.0, "state_max": 4.0, "state_n": 50,
                 "theta_max": 4.0, "theta_n": 50, "quadrature_step": 0.01},
        "dual_grid": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]],
    }
    path = tmp_path / "j2.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dual-curve", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "g_1,g_2,h,W0,slack_1,slack_2"
    assert len(lines) == 4
    g1, g2, h, w0, s1, s2 = map(float, lines[2].split(","))
    assert (g1, g2) == (1.0, 0.0)
    assert h == pytest.approx(w0 - 0.5 * g1 - 1.9 * g2, abs=1e-12)


def test_eval_command_reports_policy_costs(config_file, tmp_path, capsys):
    prob, grid = ic.problem_from_config(BASE_DOC)
    mdp = ic.discretize(prob, grid)
    pol = threshold_policy(mdp, 1.25)
    table = tmp_path / "policy.txt"
    table.write_text(ic.policy_to_table(mdp, pol))
    assert cli.main(["eval", "--config", config_file,
                     "--policy", str(table)]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("eval_report.schema.json"))
    expected = ic.eval_policy(mdp, pol).v
    assert report["costs"] == pytest.approx(list(expected), abs=1e-12)


def test_eval_reports_infinite_cost_as_inf_string(config_file, tmp_path, capsys):
    # a zero-wait table loops at the origin forever: infinite impulse spend
    prob, grid = ic.problem_from_config(BASE_DOC)
    mdp = ic.discretize(prob, grid)
    rows = ["0.0 0.0"] + [f"{float(x)!r} INF" for x in mdp.states[1:]]
    table = tmp_path / "loop.txt"
    table.write_text("\n".join(rows) + "\n")
    assert cli.main(["eval", "--config", config_file,
                     "--policy", str(table)]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("eval_report.schema.json"))
    assert report["costs"][0] == "INF"
    assert report["finite"] is False


def test_verify_passes_on_default_config(config_file, capsys):
    assert cli.main(["verify", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.strip().endswith("(0 failing checks)")


def test_verify_validates_once(config_file, monkeypatch, capsys):
    calls = []
    real = cli.validate
    monkeypatch.setattr(cli, "validate",
                        lambda problem, grid: calls.append(1) or real(problem, grid))
    assert cli.main(["verify", "--config", config_file]) == 0
    assert len(calls) == 1
    assert "PASS impulse-cost-positive" in capsys.readouterr().out


def test_verify_passes_on_shipped_benchmark_config(capsys):
    from pathlib import Path
    shipped = Path(__file__).resolve().parent.parent / "configs" / "fluid_benchmark.json"
    assert cli.main(["verify", "--config", str(shipped)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_missing_config_exits_2(capsys):
    assert cli.main(["solve", "--config", "/nonexistent.json"]) == 2


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad)]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"model": "fluid"}))
    assert cli.main(["solve", "--config", str(empty)]) == 2



@pytest.mark.parametrize("field", ["alpha", "d", "grid.quadrature_step",
                                   "grid.state_max", "grid.theta_max"])
def test_nan_config_field_exits_2(config_file, field, capsys):
    assert cli.main(["solve", "--config", config_file,
                     "--set", f"{field}=NaN"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, needle", [
    ("grid.state_n", "400.9", "state_n must be an integer, got 400.9"),
    ("grid.state_n", "1.5", "state_n must be an integer"),
    ("grid.theta_n", "80.5", "theta_n must be an integer"),
    ("grid.theta_n", "NaN", "theta_n must be an integer"),
    ("grid.state_n", "null", "grid: ")])
def test_fractional_grid_count_exits_2(config_file, field, value, needle,
                                       capsys):
    assert cli.main(["solve", "--config", config_file,
                     "--set", f"{field}={value}"]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("command, edit, field", [
    ("solve", "alpha=true", "'alpha'"),
    ("solve", "h=true", "'h'"),
    ("solve", 'd="0.4"', "'d'"),
    ("solve", 'K="1e0"', "'K'"),
    ("solve", 'grid.quadrature_step="0.02"', "'grid.quadrature_step'"),
    ("solve", 'grid.state_n="40"', "'grid.state_n'"),
    ("analytic", "h=true", "'h'"),
    # edits of the README two-constraint config
    ("solve", (("gradual_costs", 0, "value"), "1"), "'gradual_costs[0].value'"),
    ("solve", (("gradual_costs", 0), True), "'gradual_costs[0]'"),
    ("solve", (("impulse_costs", 0, "action_factors"), {"flush": True}),
     "'impulse_costs[0].action_factors.flush'"),
    ("solve", (("flow", "rate"), "1"), "'flow.rate'"),
    ("solve", (("impulse_costs", 0, "action_factors"), ["flush"]),
     "'impulse_costs[0].action_factors' must be an object")],
    ids=["alpha-true", "h-true", "d-string", "K-string", "step-string",
         "state_n-string", "analytic-h-true", "constant-value-string",
         "rate-true", "action-factor-true", "flow-rate-string",
         "action-factors-list"])
def test_malformed_number_field_exits_2_naming_it(tmp_path, command, edit,
                                                   field, capsys):
    if isinstance(edit, str):
        shipped = os.path.join(os.path.dirname(__file__), os.pardir,
                               "configs", "fluid_benchmark.json")
        argv = ["--config", shipped, "--set", edit]
    else:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_mutated("j2", [edit])))
        argv = ["--config", str(path)]
    assert cli.main([command] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


# a lump cost of -x: negative at every state but 0
NEGATIVE_COST_DOC = {
    "model": "custom", "alpha": 1.0, "x0": 0.0,
    "flow": {"type": "drift", "rate": 1.0},
    "reset": {"type": "constant", "value": 0.0},
    "actions": ["a"], "bounds": [0.5],
    "gradual_costs": [{"type": "constant", "value": 0.0},
                      {"type": "polynomial", "coeffs": [0.0, 1.0]}],
    "impulse_costs": [{"type": "constant", "value": 1.0},
                      {"type": "polynomial", "coeffs": [0.0, -1.0]}],
    "grid": {"state_min": 0.0, "state_max": 4.0, "state_n": 30,
             "theta_max": 4.0, "theta_n": 30, "quadrature_step": 0.01},
}


@pytest.mark.parametrize("command", ["solve", "eval", "verify"])
@pytest.mark.parametrize("doc, override, needle", [
    pytest.param(BASE_DOC, "x0=100", "x0=100.0 is not within half a cell",
                 id="x0-off-grid"),
    pytest.param(BASE_DOC, "alpha=1000", "underflows to 0", id="large-alpha"),
    pytest.param(BASE_DOC, "grid.theta_max=1e6", "underflows to 0",
                 id="large-theta-max"),
    pytest.param(NEGATIVE_COST_DOC, "x0=0.0", "non-finite or negative",
                 id="negative-cost"),
    pytest.param(J2_DOC, "reset.value=NaN",
                 "landing state is non-finite at state 0.0 (index 0), "
                 "theta=0.0, action='flush': nan", id="nan-landing")])
def test_inputs_discretize_rejects_exit_2(tmp_path, command, doc, override,
                                          needle, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path), "--set", override]
    if command == "eval":
        # rejected before the policy file is read
        argv += ["--policy", str(tmp_path / "absent.txt")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err


def test_integral_float_grid_count_is_accepted(config_file, capsys):
    assert cli.main(["dual-curve", "--config", config_file,
                     "--set", "grid.state_n=80.0", "--g-steps", "2"]) == 0
    capsys.readouterr()


def test_nan_analytic_parameter_exits_2(config_file, capsys):
    assert cli.main(["analytic", "--config", config_file,
                     "--set", "d=NaN"]) == 2
    assert "d must be > 0" in capsys.readouterr().err


def test_dual_curve_bad_multiplier_grid_exits_2(config_file, tmp_path, capsys):
    assert cli.main(["dual-curve", "--config", config_file,
                     "--g-min", "-1", "--g-steps", "3"]) == 2
    assert "[-1.0]" in capsys.readouterr().err
    assert cli.main(["dual-curve", "--config", config_file,
                     "--g-steps", "-1"]) == 2
    assert "--g-steps" in capsys.readouterr().err
    doc = dict(BASE_DOC, dual_grid=[0.5, -0.25])
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dual-curve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[-0.25]" in err and "nonnegative" in err


def test_eval_duplicate_row_exits_2(config_file, tmp_path, capsys):
    prob, grid = ic.problem_from_config(BASE_DOC)
    mdp = ic.discretize(prob, grid)
    table = tmp_path / "dup.txt"
    table.write_text(ic.policy_to_table(mdp, threshold_policy(mdp, 1.25))
                     + "0.0 INF\n")
    assert cli.main(["eval", "--config", config_file,
                     "--policy", str(table)]) == 2
    assert "second row" in capsys.readouterr().err

def test_zero_impulse_cost_refuses_solve_with_exit_3(tmp_path, capsys):
    doc = {
        "model": "custom", "alpha": 1.0, "x0": 0.0,
        "flow": {"type": "drift", "rate": 1.0},
        "reset": {"type": "constant", "value": 0.0},
        "actions": ["a"], "bounds": [0.5],
        "gradual_costs": [{"type": "constant", "value": 0.0},
                          {"type": "polynomial", "coeffs": [0.0, 1.0]}],
        "impulse_costs": [{"type": "constant", "value": 0.0},
                          {"type": "constant", "value": 0.0}],
        "grid": {"state_min": 0.0, "state_max": 4.0, "state_n": 30,
                 "theta_max": 4.0, "theta_n": 30, "quadrature_step": 0.01},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "bounded away from zero" in err


def test_bracket_failure_exits_4(config_file, monkeypatch):
    def boom(mdp, cfg):
        raise ic.DualBracketError("still increasing")
    monkeypatch.setattr(cli, "solve_constrained", boom)
    assert cli.main(["solve", "--config", config_file]) == 4


def test_nonconverged_evaluation_exits_4(config_file, monkeypatch):
    def boom(mdp, cfg):
        raise ic.BellmanNotConvergedError("did not converge")
    monkeypatch.setattr(cli, "solve_constrained", boom)
    assert cli.main(["solve", "--config", config_file]) == 4


def test_dual_curve_nonconverged_evaluation_exits_4(config_file, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(cli, "_bellman_config",
                        lambda tol: ic.BellmanConfig(max_iterations=1))
    assert cli.main(["dual-curve", "--config", config_file]) == 4
    err = capsys.readouterr().err
    # g = 0 keeps the never-impulse start, the first g > 0 with a better
    # policy needs a second step
    assert re.search(r"multiplier \[0\.\d+\] did not converge", err)


def test_verify_weak_duality_fails_on_nonconverged_probe(config_file,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(cli, "_bellman_config",
                        lambda tol: ic.BellmanConfig(max_iterations=1))
    assert cli.main(["verify", "--config", config_file]) == 5
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if "weak-duality" in ln]
    assert line[0].startswith("FAIL weak-duality: ")
    assert "did not converge" in line[0]


def test_verify_weak_duality_reuses_the_agreement_solve(config_file,
                                                      monkeypatch, capsys):
    # at g = ones the weak-duality probe is the policy-iteration-agreement
    # check's cold solve, so only the other four scales call dual_value
    calls = []
    real = cli.dual_value

    def counted(mdp, g, cfg):
        calls.append(g.tolist())
        return real(mdp, g, cfg)

    monkeypatch.setattr(cli, "dual_value", counted)
    assert cli.main(["verify", "--config", config_file]) == 0
    assert calls == [[0.0], [0.5], [2.0], [4.0]]
    assert "PASS weak-duality: max h(g) - V0(feasible) = " in capsys.readouterr().out
    # the reused value is bitwise the one dual_value returns
    prob, grid = ic.problem_from_config(BASE_DOC)
    mdp = ic.discretize(prob, grid)
    pi = ic.policy_iteration(mdp, [1.0])
    assert pi.W[mdp.x0_index] - mdp.bounds[0] == real(mdp, [1.0]).h


def test_verify_checks_peak_memory(accept_fluid):
    # the Bellman checks hold a cost and one Q table, the occupation checks
    # a mass table and its product with survival, and no table outlives its
    # check; kernel-mass sums rows without a dense copy.  One table is
    # n_states * n_actions * 8 bytes.
    prob, grid, mdp = accept_fluid
    table = mdp.n_states * mdp.n_actions * 8
    peak, checks = traced_peak(lambda: list(cli._verify_checks(
        prob, grid, mdp, 1.0, ic.validate(prob, grid))))
    assert all(passed for _, passed, _ in checks)
    assert peak <= 2.2 * table, peak / table


def test_dual_curve_warm_start_matches_cold_start(capsys):
    # each grid point's policy iteration starts from the previous point's
    # policy; the values must agree with cold starts to the search's gap
    from pathlib import Path
    shipped = Path(__file__).resolve().parent.parent / "configs" / "fluid_benchmark.json"
    assert cli.main(["dual-curve", "--config", str(shipped)]) == 0
    rows = [list(map(float, ln.split(",")))
            for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 21
    prob, grid = ic.problem_from_config(json.loads(shipped.read_text()))
    mdp = ic.discretize(prob, grid)
    tol = 1e3 * ic.BellmanConfig().tolerance
    for g, h, w0, _ in rows:
        cold = ic.dual_value(mdp, [g])
        assert abs(h - cold.h) <= tol * abs(cold.h)
        assert abs(w0 - cold.W0) <= tol * abs(cold.W0)


def test_set_override_changes_nested_fields(config_file, capsys):
    assert cli.main(["dual-curve", "--config", config_file,
                     "--set", "grid.theta_n=40", "--g-steps", "3"]) == 0
    capsys.readouterr()


def test_parser_is_built_once_and_forgets_overrides(config_file, monkeypatch,
                                                    request, capsys):
    # main reuses one parser; a --set given to one call must not reach the
    # next one through the parser's defaults
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        if kwargs.get("prog") == "impulsecontrol":
            built.append(1)
        real_init(self, *args, **kwargs)

    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    regimes = []
    for extra in (["--set", "d=3.0"], []):
        assert cli.main(["analytic", "--config", config_file, *extra]) == 0
        regimes.append(json.loads(capsys.readouterr().out)["regime"])
    assert regimes == ["unconstrained", "constrained"]
    assert len(built) == 1


def test_bellman_trace_written(config_file, tmp_path):
    trace = tmp_path / "trace.csv"
    assert cli.main(["solve", "--config", config_file,
                     "--out", str(tmp_path / "r.json"),
                     "--bellman-trace", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual"
    residuals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert residuals[-1] <= 1e-9
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


# ---------------------------------------------------------------------------
# report rendering against the renderer it replaced


def _fmt_float_reference(x):
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return '"INF"' if x > 0 else '"-INF"'
    return format(float(x), ".17g")


def _render_json_reference(obj, indent=0):
    """render_json as it was: one isinstance chain per leaf."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_reference(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_render_json_reference(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            rows.append("  " * (indent + 1) + json.dumps(str(k)) + ": "
                        + _render_json_reference(v, indent + 1))
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj)!r} into a report")


@pytest.mark.parametrize("name", sorted(BANDS))
def test_band_centre_report_renders_as_before(tmp_path, monkeypatch, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(band_centre_doc(name)))
    rendered = []
    real = cli.render_json

    def keep(obj, indent=0):
        rendered.append((obj, real(obj, indent)))
        return rendered[-1][1]

    monkeypatch.setattr(cli, "render_json", keep)
    assert cli.main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 0
    (report, text), = rendered
    assert len(report["mixture"]["policies"][0]) == report["grid"]["state_n"]
    assert text == _render_json_reference(report)


EDGE_LEAVES = {
    "np_float": np.float64(0.1), "np_float32": np.float32(0.1),
    "np_int": np.int64(-3), "int": 7, "true": True, "false": False,
    "bool_and_np_int32": [True, np.int32(2)], "none": None,
    "inf": math.inf, "minus_inf": -math.inf, "np_inf": np.float64(-np.inf),
    "empty_list": [], "empty_dict": {}, "empty_tuple": (),
    "tuple": (1.5, "a", None), "array": np.asarray([1.0, 2.5, np.inf]),
    "int_array": np.arange(3), "matrix": np.eye(2),
    "nested": {"x": [{"y": ["é", "a\"b\n"]}], 3: 1e-300},
    "repeated_strings": ["flush", "flush", {"flush": "flush"}],
    "np_float_product": np.float64(2.0) * 1.5, "tiny": 5e-324, "zero": -0.0,
}


@pytest.mark.parametrize("key", sorted(EDGE_LEAVES))
def test_edge_leaves_render_as_before(key):
    for obj in (EDGE_LEAVES[key], [EDGE_LEAVES[key]], {"k": EDGE_LEAVES[key]}):
        for indent in (0, 2):
            assert cli.render_json(obj, indent) == _render_json_reference(obj, indent)


@pytest.mark.parametrize("nan", [math.nan, np.float64(np.nan), [1.0, math.nan],
                                 {"a": {"b": np.asarray([math.nan])}}])
def test_nan_still_refuses_to_render(nan):
    with pytest.raises(ValueError, match="NaN"):
        cli.render_json(nan)


def test_unknown_leaf_still_refuses_to_render():
    with pytest.raises(TypeError, match="cannot render"):
        cli.render_json({"a": [object()]})


# ---------------------------------------------------------------------------
# malformed tables and impossible sizes exit 2 before any work


def _j2_30(tmp_path, rate=None):
    doc = json.loads(json.dumps(J2_DOC))
    doc["grid"].update(state_n=30, theta_n=30)
    if rate is not None:
        doc["gradual_costs"][2] = rate
    path = tmp_path / "j2.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("rate, needle", [
    ({"breakpoints": [], "values": 2.0}, "'gradual_costs[2].values' must be a list"),
    ({"breakpoints": [], "values": None}, "'gradual_costs[2].values' must be a list"),
    ({"breakpoints": 0.8, "values": [2.0, 0.2]},
     "'gradual_costs[2].breakpoints' must be a list"),
    ({"breakpoints": [0.8], "values": [2.0, "0.2"]},
     "'gradual_costs[2].values' must be a list of numbers"),
    ({"breakpoints": [0.8], "values": [2.0]},
     "'gradual_costs[2].values' must have one more entry than breakpoints"),
    ({"breakpoints": [], "values": [1.0, 2.0]},
     "'gradual_costs[2].values' must have one more entry than breakpoints"),
    ({"type": "polynomial", "coeffs": 2.0},
     "'gradual_costs[2].coeffs' must be a list of numbers, got 2.0"),
    ({"type": "polynomial", "coeffs": None},
     "'gradual_costs[2].coeffs' must be a list of numbers, got None"),
    ({"type": "polynomial", "coeffs": [0.2, True]},
     "'gradual_costs[2].coeffs' must be a list of numbers")],
    ids=["scalar-values", "null-values", "scalar-breakpoints", "string-value",
         "short-values", "long-values", "scalar-coeffs", "null-coeffs",
         "bool-coeff"])
def test_bad_piecewise_constant_table_exits_2(tmp_path, rate, needle, capsys):
    config = _j2_30(tmp_path, {"type": "piecewise_constant", **rate})
    for command in ("solve", "verify"):
        assert cli.main([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err


def test_verify_oracle_agreement_fails_where_the_true_flow_leaves_the_grid(
        tmp_path, capsys):
    # the reset lands at -1, below the grid: the grid clamps it to 0, while
    # the oracle follows it to a state where the holding rate is negative
    config = _j2_30(tmp_path)
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert cli.main(["solve", "--config", config, "--set", "reset.value=-1",
                         "--out", os.devnull]) == 0
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert cli.main(["verify", "--config", config,
                         "--set", "reset.value=-1"]) == 5
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if "oracle-agreement" in ln]
    assert line[0].startswith("FAIL oracle-agreement: theta=")
    assert "non-finite or negative stage cost" in line[0]


def test_piecewise_constant_without_breakpoints_is_a_constant(tmp_path, capsys):
    config = _j2_30(tmp_path, {"type": "piecewise_constant",
                               "breakpoints": [], "values": [0.2]})
    assert cli.main(["solve", "--config", config]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("overrides, needle", [
    (["grid.quadrature_step=1e-9"],
     "grid.quadrature_step=1e-09 needs a running-cost quadrature lattice of "),
    (["grid.state_n=200000", "grid.theta_n=200000"],
     "grid.state_n x grid.theta_n = 200000 x 200000 needs ")],
    ids=["quadrature-step", "grid-size"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_impossible_sizes_exit_2_before_allocating(config_file, monkeypatch,
                                                   capsys, command, overrides,
                                                   needle):
    # terabytes either way; the cap keeps the refusal certain on a machine
    # with more memory than that, where these inputs would really allocate
    limit = min(model.physical_memory(), 2 ** 36)
    monkeypatch.setattr(model, "physical_memory", lambda: limit)
    argv = [command, "--config", config_file]
    for item in overrides:
        argv += ["--set", item]
    peak, code = traced_peak(lambda: cli.main(argv))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err
    got = int(re.search(r"\((\d+) bytes in all", err).group(1))
    assert got > limit and f"more than the {limit} bytes of physical memory" in err
    # the grid arrays themselves (200000 points), no table or lattice
    assert peak <= 2 ** 24, peak


def test_physical_memory_is_read(config_file, capsys):
    assert model.physical_memory() > 2 ** 20
    # the shipped grids are far below it
    assert cli.main(["solve", "--config", config_file, "--set",
                     "grid.state_n=800", "--set", "grid.theta_n=800",
                     "--out", os.devnull]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fuzzed config documents end in a documented exit code


def _fuzz_bases():
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    fluid = json.loads((root / "configs" / "fluid_benchmark.json").read_text())
    bases = {"fluid": fluid, "j2": json.loads(json.dumps(J2_DOC))}
    for doc in bases.values():
        doc["grid"].update(state_n=30, theta_n=30)
    return bases


def _doc_paths(node, prefix=()):
    """Every key or index path into a JSON document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _doc_paths(child, prefix + (key,))


FUZZ_BASES = _fuzz_bases()
FUZZ_VALUES = (0, -1, 1e-300, 1e300, math.nan, "x", None, [], {}, "<delete>",
               True, "1")


def _fuzz_case(name):
    edit = st.tuples(st.sampled_from(list(_doc_paths(FUZZ_BASES[name]))),
                     st.sampled_from(FUZZ_VALUES))
    return st.tuples(st.just(name), st.lists(edit, min_size=1, max_size=2))


def _mutated(name, edits):
    """A fresh copy of the base document with each edit applied in turn.

    The value "<delete>" removes the field.  An edit whose path an earlier
    edit removed is skipped.  Values are copied per edit, so no two places
    share one list or object.
    """
    doc = json.loads(json.dumps(FUZZ_BASES[name]))
    for path, value in edits:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if value == "<delete>":
                del node[path[-1]]
            else:
                node[path[-1]] = json.loads(json.dumps(value))
        except (KeyError, IndexError, TypeError):
            continue
    return doc


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(sorted(FUZZ_BASES)).flatmap(_fuzz_case),
       command=st.sampled_from(["solve", "verify"]))
@example(case=("j2", [(("gradual_costs", 1, "coeffs"), 2.0)]), command="solve")
@example(case=("j2", [(("impulse_costs", 0), {"type": "polynomial",
                                               "coeffs": None})]),
         command="verify")
@example(case=("j2", [(("reset", "value"), math.nan)]), command="verify")
@example(case=("j2", [(("reset", "value"), -1)]), command="verify")
# alpha * quadrature_step underflows to 0 in the memory estimate
@example(case=("fluid", [(("alpha",), 1e-300), (("grid", "quadrature_step"), 1e-300)]),
         command="solve")
@example(case=("j2", [(("impulse_costs", 0, "action_factors"), ["flush"])]),
         command="solve")
def test_fuzzed_config_exits_with_a_documented_code(tmp_path_factory, case,
                                                    command):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(_mutated(*case)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main([command, "--config", str(path), "--out", os.devnull])
    assert code in (0, 2, 3, 4, 5)
