import argparse
import dataclasses
import json
import math
import os
import re
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from importlib import resources

import impulsecontrol as ic
import impulsecontrol.cli as cli
from impulsecontrol import bellman, model

from conftest import (BANDS, J2_DOC, band_centre_doc, constant_theta_policy,
                      custom_two_action_off_grid_doc, fluid_doc,
                      threshold_policy, traced_peak)


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


def test_eval_of_a_split_zero_wait_cycle_exits_2(tmp_path, capsys):
    # from x0 = 1 the scale reset lands off the grid, so the landings split,
    # and waiting zero everywhere keeps all mass on states 0 and 1 (state 1
    # lands half on itself, half on 0), which makes that system singular;
    # the states are named before any solve
    doc = custom_two_action_off_grid_doc()
    doc["x0"] = 1.0
    config = tmp_path / "offgrid.json"
    config.write_text(json.dumps(doc))
    mdp = ic.discretize(*ic.problem_from_config(doc))
    table = tmp_path / "zero_wait.txt"
    table.write_text(ic.policy_to_table(mdp, constant_theta_policy(mdp, 0)))
    assert cli.main(["eval", "--config", str(config),
                     "--policy", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: policy evaluation system is singular: the policy "
        "induces a survival-1 cycle through grid state indices [0, 1]\n")


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
    shipped = Path(__file__).resolve().parent.parent / "configs" / "fluid_benchmark.json"
    assert cli.main(["verify", "--config", str(shipped)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_passes_on_piecewise_rates(tmp_path, capsys):
    # the shipped two-constraint config is the custom-j2 band centre; the
    # tables integrate its jump rate in closed form and the references split
    # their spans at the jump, so both quadrature gates hold
    shipped = Path(__file__).resolve().parent.parent / "configs" / "custom_j2.json"
    assert json.loads(shipped.read_text()) == band_centre_doc("custom-j2")
    path = tmp_path / "j2.json"
    path.write_text(json.dumps(J2_DOC))
    for config in (shipped, path):
        assert cli.main(["verify", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS oracle-agreement" in out


def test_verify_passes_on_the_decay_flow(tmp_path, capsys):
    # the shipped two-constraint config along x e^{-t/2}, reset to the top
    # of the grid: every rate, the piecewise one included, has a closed form
    shipped = Path(__file__).resolve().parent.parent / "configs" / "custom_j2.json"
    doc = json.loads(shipped.read_text())
    doc["flow"] = {"type": "exponential_decay", "rate": 0.5}
    doc["reset"]["value"] = 4.0
    doc["grid"].update(state_n=60, theta_n=60)
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS ") == 12


def test_missing_config_exits_2(capsys):
    assert cli.main(["solve", "--config", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("case", [
    "missing config", "config is a directory", "missing policy",
    "policy is a directory", "binary policy", "out under a missing directory",
    "bellman trace under a missing directory"])
def test_a_file_that_cannot_be_read_or_written_exits_2_naming_it(
        config_file, tmp_path, case, capsys):
    missing = str(tmp_path / "missing" / "file")
    binary = tmp_path / "policy.bin"
    binary.write_bytes(bytes(range(128, 256)))
    path, argv = {
        "missing config": (missing, ["solve", "--config", missing]),
        "config is a directory": (str(tmp_path),
                                  ["solve", "--config", str(tmp_path)]),
        "missing policy": (missing, ["eval", "--config", config_file,
                                     "--policy", missing]),
        "policy is a directory": (str(tmp_path), [
            "eval", "--config", config_file, "--policy", str(tmp_path)]),
        "binary policy": (str(binary), ["eval", "--config", config_file,
                                        "--policy", str(binary)]),
        "out under a missing directory": (missing, [
            "solve", "--config", config_file, "--out", missing]),
        "bellman trace under a missing directory": (missing, [
            "solve", "--config", config_file, "--out", str(tmp_path / "r.json"),
            "--bellman-trace", missing]),
    }[case]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and path in err, err
    assert ("not found" in err) == case.startswith("missing"), err


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


@pytest.mark.parametrize("dual_grid", [
    [True], ["1"], [[0.5, True]], True, [10 ** 400]],
    ids=["bool", "string", "bool-component", "not-a-list", "huge-integer"])
def test_dual_grid_entries_are_read_as_config_numbers(config_file, dual_grid,
                                                       capsys):
    assert cli.main(["dual-curve", "--config", config_file,
                     "--set", f"dual_grid={json.dumps(dual_grid)}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'dual_grid" in err


HUGE = 10 ** 400  # JSON keeps every digit of an integer; no float holds it


@pytest.mark.parametrize("edit, needle", [
    (lambda d: d.update(alpha=HUGE), "'alpha' is beyond the float range"),
    (lambda d: d["grid"].update(state_n=HUGE),
     "'grid.state_n' is beyond the float range"),
    (lambda d: d["gradual_costs"].__setitem__(0, HUGE),
     "'gradual_costs[0]' is beyond the float range"),
    (lambda d: d["gradual_costs"][2].update(breakpoints=[HUGE]),
     "'gradual_costs[2].breakpoints' holds a number beyond the float range"),
    (lambda d: d.update(bounds=[0.5, HUGE]),
     "'bounds' holds a number beyond the float range")],
    ids=["alpha", "grid-count", "bare-rate", "breakpoints", "bounds"])
def test_integer_beyond_float_range_exits_2(tmp_path, edit, needle, capsys):
    doc = json.loads(json.dumps(J2_DOC))
    edit(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err


def test_integer_beyond_float_range_on_the_command_line_exits_2(config_file,
                                                                 capsys):
    assert cli.main(["solve", "--config", config_file,
                     "--set", f"alpha={HUGE}"]) == 2
    assert "'alpha' is beyond the float range" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["alpha=1e-300", "d=1e-300", "alpha=1e300",
                                   "h=1e300"])
def test_analytic_beyond_float_range_exits_2(config_file, capsys, field):
    # the closed form divides by alpha^2 and squares alpha on the way
    assert cli.main(["analytic", "--config", config_file, "--set", field]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the closed form cannot be evaluated "
                          "for alpha=")


def test_solve_with_a_vanishing_discount_refuses_its_costs(config_file, capsys):
    # the holding cost's closed form scales by 1/alpha^2, beyond float range;
    # the refusal is the only message, with the bad cost as a plain number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--config", config_file,
                         "--set", "alpha=1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tabulated cost is non-finite or "
                          "negative at state ")
    assert err.endswith(": nan\n") and err.count("\n") == 1


def test_solve_whose_certificates_fail_writes_its_report_and_exits_4(
        config_file, capsys):
    # at alpha = 1e-10 the holding cost is ~1e20 and the search stops at
    # g* = 0 with a mixture far above the bound
    assert cli.main(["solve", "--config", config_file,
                     "--set", "alpha=1e-10"]) == 4
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    jsonschema.validate(report, _schema("solve_report.schema.json"))
    assert report["certificates"]["ok"] is False
    assert report["certificates"]["feasibility_ok"] is False
    assert captured.err == "solve failed: certificates not met: feasibility\n"


def test_master_lp_overflow_on_the_first_box_exits_4(config_file, capsys):
    # at alpha = 1e-100 the cut costs are ~1e200 and the master's column
    # tolerance overflows: one message, no warning, no report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--config", config_file,
                         "--set", "alpha=1e-100", "--set", "grid.state_n=30",
                         "--set", "grid.theta_n=30"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("solve failed: cutting-plane master LP failed: "
                            "non-finite column tolerance\n")


def test_integer_of_too_many_digits_for_the_json_reader_exits_2(tmp_path,
                                                                capsys):
    # Python's int conversion refuses more than 4300 digits with ValueError
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(BASE_DOC).replace('"alpha": 1.0',
                                                 '"alpha": 1' + "0" * 5000))
    assert cli.main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config file is not valid JSON: ")


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


@pytest.mark.parametrize("config, bounds, named", [
    ("fluid_benchmark.json", "d=0.001",
     r"bound 1 \(d_1 = 0\.001, least V_1 of any cut 0\.0062\d*\)"),
    ("custom_j2.json", "bounds=[1.0,1.0]",
     r"bound 2 \(d_2 = 1, least V_2 of any cut 1\.19\d*\)")],
    ids=["fluid-d-0.001", "custom-j2-1-1"])
def test_infeasible_bound_is_named_on_exit_4(config, bounds, named, capsys):
    # only the named bound's multiplier reaches the doubling cap
    shipped = Path(__file__).resolve().parent.parent / "configs" / config
    assert cli.main(["solve", "--config", str(shipped), "--set", bounds]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("solve failed: dual functional "
                                               "still increasing")
    assert re.search(named, err[0]) and err[0].count("bound ") == 1


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


def _counted_dual_values(monkeypatch) -> list:
    """Wrap ``cli.dual_value``; each call appends (g, mdp.n_states, cfg, h)."""
    calls = []
    real = cli.dual_value

    def counted(mdp, g, cfg):
        pt = real(mdp, g, cfg)
        calls.append((g.tolist(), mdp.n_states, cfg, pt.h))
        return pt

    monkeypatch.setattr(cli, "dual_value", counted)
    return calls


def test_verify_weak_duality_reuses_the_agreement_solve(config_file,
                                                      monkeypatch, capsys):
    # at g = ones the weak-duality probe is the policy-iteration-agreement
    # check's cold solve, so only the other four scales call dual_value,
    # each on x0's two states
    calls = _counted_dual_values(monkeypatch)
    assert cli.main(["verify", "--config", config_file]) == 0
    assert [(g, n) for g, n, _, _ in calls] == [([0.0], 2), ([0.5], 2),
                                                ([2.0], 2), ([4.0], 2)]
    assert "PASS weak-duality: max h(g) - V0(feasible) = " in capsys.readouterr().out
    # every h, the reused one too, is bitwise the full grid's dual value
    prob, grid = ic.problem_from_config(BASE_DOC)
    mdp = ic.discretize(prob, grid)
    assert all(ic.dual_value(mdp, g, cfg).h == h for g, _, cfg, h in calls)
    pi = ic.policy_iteration(mdp, [1.0])
    assert pi.W[mdp.x0_index] - mdp.bounds[0] == ic.dual_value(mdp, [1.0]).h


@pytest.mark.parametrize("name, reset, n_search, code", [
    ("fluid_benchmark", None, 2, 0),
    ("custom_j2", None, 2, 0),
    # split landings, R = {0, 1, 18, 19}; oracle-agreement fails at 200
    # states (ROADMAP item 9b), weak duality passes
    ("custom_j2", {"type": "constant", "value": 0.37}, 4, 5),
    # a state-dependent kernel keeps the full grid
    ("custom_j2", {"type": "scale", "factor": 0.5}, None, 5),
], ids=["fluid_benchmark", "custom_j2", "custom_j2-split", "custom_j2-scale"])
def test_verify_weak_duality_runs_on_x0_states(tmp_path, monkeypatch, capsys,
                                               name, reset, n_search, code):
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / f"{name}.json").read_text())
    if reset is not None:
        doc["reset"] = reset
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    calls = _counted_dual_values(monkeypatch)
    assert cli.main(["verify", "--config", str(config)]) == code
    assert "PASS weak-duality: " in capsys.readouterr().out
    mdp = ic.discretize(*ic.problem_from_config(doc))
    ones = np.ones(mdp.n_constraints)
    assert [g for g, _, _, _ in calls] == [(s * ones).tolist()
                                           for s in (0.0, 0.5, 2.0, 4.0)]
    assert {n for _, n, _, _ in calls} == {n_search or mdp.n_states}
    assert all(ic.dual_value(mdp, g, cfg).h == h for g, _, cfg, h in calls)


def test_verify_builds_three_full_cost_tables(monkeypatch):
    # at the verify-800 centre only the Bellman checks build a combined cost
    # over the grid: solve_W at g = 0 and at ones, and policy iteration at
    # ones; the weak-duality values build theirs on x0's states
    prob, grid = ic.problem_from_config(fluid_doc(0.5, 800, 5.0))
    mdp = ic.discretize(prob, grid)
    rows = []
    real = bellman.combined_cost

    def counted(m, g):
        rows.append(m.n_states)
        return real(m, g)

    monkeypatch.setattr(bellman, "combined_cost", counted)
    checks = list(cli._verify_checks(prob, grid, mdp, 1.0, ic.validate(prob, grid)))
    assert all(passed for _, passed, _ in checks)
    assert rows.count(mdp.n_states) == 3


def test_verify_weak_duality_without_constraints(tmp_path, monkeypatch,
                                                capsys):
    # J = 0: every probe is feasible and h = W*(x0), read from the
    # policy-iteration-agreement solve; no further solve runs
    doc = json.loads(json.dumps(J2_DOC))
    doc.update(bounds=[], gradual_costs=[{"type": "polynomial",
                                          "coeffs": [0.0, 1.0]}],
               impulse_costs=doc["impulse_costs"][:1])
    doc["grid"].update(state_n=40, theta_n=40)
    path = tmp_path / "j0.json"
    path.write_text(json.dumps(doc))

    def no_solve(*args):
        raise AssertionError("verify solved again for weak-duality")

    monkeypatch.setattr(cli, "dual_value", no_solve)
    assert cli.main(["verify", "--config", str(path)]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if "weak-duality" in ln][0]
    assert line.startswith("PASS weak-duality: max h(g) - V0(feasible) = ")
    gap = float(line.rpartition("= ")[2])
    mdp = ic.discretize(*ic.problem_from_config(doc))
    W0 = ic.policy_iteration(mdp, []).W[mdp.x0_index]
    m = mdp.theta_points.size - 1  # verify's probes wait m/8, m/4, m/2, m-1
    probes = [ic.eval_policy(mdp, constant_theta_policy(mdp, k)).v[0]
              for k in (m // 8, m // 4, m // 2, m - 1)]
    assert gap == pytest.approx(W0 - min(probes), rel=1e-3) and gap < 0.0
    # an h above a probe's value fails the line
    real = cli.policy_iteration

    def inflated(*args):
        sol = real(*args)
        return dataclasses.replace(sol, W=sol.W + 1.0)

    monkeypatch.setattr(cli, "policy_iteration", inflated)
    assert cli.main(["verify", "--config", str(path)]) == 5
    assert "FAIL weak-duality: " in capsys.readouterr().out


def test_verify_checks_peak_memory(accept_fluid):
    # the Bellman checks hold a cost and one Q table, and no table outlives
    # its check; the occupation checks hold one cell per state, and
    # kernel-mass reads the one stored row of this state-free kernel.  One
    # table is n_states * n_actions * 8 bytes; the peak read 2.11-2.13
    # tables, set by the Bellman checks.
    prob, grid, mdp = accept_fluid
    table = mdp.n_states * mdp.n_actions * 8
    peak, checks = traced_peak(lambda: list(cli._verify_checks(
        prob, grid, mdp, 1.0, ic.validate(prob, grid))))
    assert all(passed for _, passed, _ in checks)
    assert peak <= 2.2 * table, peak / table


def _kernel_mass_line(prob, grid, mdp):
    checks = cli._verify_checks(prob, grid, mdp, 1.0, ic.validate(prob, grid))
    line = next(c for c in checks if c[0] == "kernel-mass")
    checks.close()
    return line


def test_kernel_mass_reads_the_stored_row(accept_fluid):
    # a constant reset stores one row of pairs: the line reads it alone and
    # says what the materialised pairs say
    prob, grid, mdp = accept_fluid
    assert mdp.landing_states is not None
    dense = dataclasses.replace(mdp, next_states=np.array(mdp.next_states),
                                next_weights=np.array(mdp.next_weights))
    assert dense.landing_states is None
    line = _kernel_mass_line(prob, grid, mdp)
    assert line[1] and line == _kernel_mass_line(prob, grid, dense)


@pytest.mark.parametrize("pair", [(1.0, 1e-9), (1.5, -0.5)])
def test_kernel_mass_fails_a_bad_broadcast_row(accept_fluid, pair):
    # one cell of the stored row sums to 1 + 1e-9, or holds a negative weight
    prob, grid, mdp = accept_fluid
    row = np.array(mdp.next_weights[:1])
    row[0, 3] = pair
    bad = dataclasses.replace(
        mdp, next_weights=np.broadcast_to(row, mdp.next_weights.shape))
    assert bad.landing_states is not None
    _, passed, detail = _kernel_mass_line(prob, grid, bad)
    assert not passed
    assert detail == ("max|w_lo+w_hi-1|=1.000e-09" if pair[1] > 0
                      else "max|w_lo+w_hi-1|=0.000e+00")


def test_dual_curve_warm_start_matches_cold_start(capsys):
    # each grid point's policy iteration starts from the previous point's
    # policy; the values must agree with cold starts to the search's gap
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


def _full_grid_curve(mdp, grid_pts) -> str:
    """The dual-curve CSV body from warm-started evaluations on the full
    grid, as ``dual-curve`` made it before it ran on x0's states."""
    rows, pt = [], None
    for g in grid_pts:
        pt = ic.dual_value(mdp, g, start=None if pt is None else pt.solution)
        rows.append(",".join(format(float(x), ".17g") for x in
                             [*pt.g, pt.h, pt.W0, *pt.slacks]))
    return "\n".join(rows)


@pytest.mark.parametrize("name, dual_grid", [
    ("fluid_benchmark", None),
    ("custom_j2", [[a, b] for a in (0.0, 0.5, 1.3, 2.0) for b in (0.0, 0.7, 1.9)])])
def test_dual_curve_matches_the_full_grid_values(tmp_path, capsys, name,
                                                 dual_grid):
    # under a constant reset the curve is evaluated on x0's states; every
    # row must be bitwise the full grid's
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / f"{name}.json").read_text())
    if dual_grid is not None:
        doc["dual_grid"] = dual_grid
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["dual-curve", "--config", str(config)]) == 0
    _, *body = capsys.readouterr().out.strip().splitlines()
    mdp = ic.discretize(*ic.problem_from_config(doc))
    assert mdp.landing_states is not None
    # without a dual_grid, the default line 0, 0.1, ..., 2
    grid_pts = ([np.asarray(g, dtype=float) for g in dual_grid]
                if dual_grid is not None
                else [np.asarray([g]) for g in np.linspace(0.0, 2.0, 21)])
    assert len(body) == len(grid_pts)
    assert "\n".join(body) == _full_grid_curve(mdp, grid_pts)


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
     "'gradual_costs[2].coeffs' must be a list of numbers"),
    ({"breakpoints": [math.nan], "values": [2.0, 0.2]},
     "'gradual_costs[2].breakpoints' must be strictly increasing finite numbers")],
    ids=["scalar-values", "null-values", "scalar-breakpoints", "string-value",
         "short-values", "long-values", "scalar-coeffs", "null-coeffs",
         "bool-coeff", "nan-breakpoint"])
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


_TINY_STEP = (["grid.quadrature_step=1e-9"],
              "grid.quadrature_step=1e-09 needs a running-cost quadrature lattice of ")
_HUGE_GRID = (["grid.state_n=200000", "grid.theta_n=200000"],
              "grid.state_n x grid.theta_n = 200000 x 200000 needs ")


@pytest.mark.parametrize("command, overrides, needle", [
    ("solve", *_TINY_STEP), ("verify", *_TINY_STEP),
    ("solve", *_HUGE_GRID), ("verify", *_HUGE_GRID)],
    ids=["solve-quadrature-step", "verify-quadrature-step",
         "solve-grid-size", "verify-grid-size"])
def test_impossible_sizes_exit_2_before_allocating(config_file, monkeypatch,
                                                   capsys, command, overrides,
                                                   needle):
    # terabytes either way; the cap keeps the refusal certain on a machine
    # with more memory than that, where these inputs would really allocate
    limit = min(model.physical_memory(), 2 ** 36)
    monkeypatch.setattr(model, "physical_memory", lambda: limit)
    argv = [command, "--config", config_file, "--out", os.devnull]
    for item in overrides:
        argv += ["--set", item]
    peak, code = traced_peak(lambda: cli.main(argv))
    if command == "solve" and overrides == _TINY_STEP[0]:
        # the fluid holding rate integrates in closed form, so discretize
        # builds no lattice and solve runs; verify's quadrature references
        # would build one, so verify is still refused
        assert code == 0
        assert capsys.readouterr().err == ""
        return
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


# deadline=None: value iteration still grinds through its sweep cap on
# costs near 1e300 (seconds per example at 30x30), which verify's
# bellman-converges lines run into; a wall bound waits on that fix.
# derandomize: each run draws the same documents, so a crash shows on every
# run or on none; every crash a random draw has found is an @example
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(FUZZ_BASES)).flatmap(_fuzz_case),
       command=st.sampled_from(["solve", "verify", "dual-curve", "analytic"]))
@example(case=("j2", [(("gradual_costs", 1, "coeffs"), 2.0)]), command="solve")
@example(case=("j2", [(("impulse_costs", 0), {"type": "polynomial",
                                               "coeffs": None})]),
         command="verify")
@example(case=("j2", [(("reset", "value"), math.nan)]), command="verify")
@example(case=("j2", [(("reset", "value"), -1)]), command="verify")
# a vanishing discount: the holding cost's closed form scales by 1/alpha^2,
# beyond float range (and alpha * quadrature_step underflows to 0 in the
# lattice estimate verify makes)
@example(case=("fluid", [(("alpha",), 1e-300), (("grid", "quadrature_step"), 1e-300)]),
         command="solve")
@example(case=("j2", [(("impulse_costs", 0, "action_factors"), ["flush"])]),
         command="solve")
@example(case=("fluid", [(("d",), 1e-300)]), command="analytic")
@example(case=("fluid", [(("alpha",), 1e-300)]), command="dual-curve")
# a list as an action label: unhashable, it once crashed verify's oracle
@example(case=("j2", [(("actions", 0), [])]), command="verify")
def test_fuzzed_config_exits_with_a_documented_code(tmp_path_factory, case,
                                                    command):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(_mutated(*case)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main([command, "--config", str(path), "--out", os.devnull,
                         *(["--g-steps", "3"] if command == "dual-curve" else [])])
    assert code in (0, 2, 3, 4, 5)
