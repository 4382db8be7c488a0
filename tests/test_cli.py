import json

import jsonschema
import pytest
from importlib import resources

import impulsecontrol as ic
import impulsecontrol.cli as cli

from conftest import threshold_policy


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


def test_set_override_changes_nested_fields(config_file, capsys):
    assert cli.main(["dual-curve", "--config", config_file,
                     "--set", "grid.theta_n=40", "--g-steps", "3"]) == 0
    capsys.readouterr()


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
