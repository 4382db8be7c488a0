"""Command outputs held against committed golden files.

Each ``solve`` golden in ``tests/golden/`` is the exit code and the report
of ``impulsecontrol solve`` on one document, without
``wall_time_seconds``.  Integers, strings, booleans and the mixture's
policies must match exactly; every other float within 1e-12 relative,
since another numpy or SuperLU build may round differently.  The
``*.trace.csv`` goldens are the ``--bellman-trace`` CSVs of the nine band
points, and the ``verify-*.txt`` goldens the ``verify`` stdout of the
shipped configs, the verify-800 centre and ``custom_j2`` with a scale
reset; in both, the text between numbers must match exactly and each
number within the same tolerance.
``tests/write_goldens.py`` rewrites them.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

import impulsecontrol.cli as cli

from conftest import BANDS, J2_DOC, custom_two_action_off_grid_doc, fluid_doc

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG_DIR = Path(__file__).parent.parent / "configs"
REL_TOL = 1e-12


def _golden_docs() -> dict:
    docs = {f"{name}-{v}": make(v)
            for name, (make, band) in BANDS.items() for v in band}
    # the fluid-accept g* error against the closed form peaks near here,
    # 9.57e-3 against criterion 1's 1e-2
    docs["fluid-accept-0.452"] = BANDS["fluid-accept"][0](0.452)
    docs["j2"] = J2_DOC
    docs["custom-two-action-off-grid"] = custom_two_action_off_grid_doc()
    return docs


def _scale_reset_doc() -> dict:
    """``configs/custom_j2.json`` with a scale reset (factor 0.5), 800x800."""
    doc = json.loads((CONFIG_DIR / "custom_j2.json").read_text())
    doc["reset"] = {"type": "scale", "factor": 0.5}
    doc["grid"].update(state_n=800, theta_n=800)
    return doc


GOLDEN_DOCS = _golden_docs()
TRACE_DOCS = {f"{name}-{v}": make(v)
              for name, (make, band) in BANDS.items() for v in band}
VERIFY_DOCS = {
    "verify-fluid_benchmark": json.loads(
        (CONFIG_DIR / "fluid_benchmark.json").read_text()),
    "verify-custom_j2": json.loads((CONFIG_DIR / "custom_j2.json").read_text()),
    # the benchmark's verify-800 workload at its band centre
    "verify-800": fluid_doc(0.5, 800, 5.0),
    # a state-dependent kernel: every check, weak duality included, runs on
    # the full grid through the CSR row chunks (oracle-agreement fails at
    # 200 and 400 states, ROADMAP item 9b)
    "verify-custom_j2-scale-800": _scale_reset_doc(),
}


def solve_report(doc: dict, work: Path) -> dict:
    """{"exit_code", "report"} of ``solve`` on ``doc``, without its wall time."""
    config, out = work / "config.json", work / "report.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["solve", "--config", str(config), "--out", str(out)])
    report = json.loads(out.read_text())
    del report["wall_time_seconds"]
    return {"exit_code": code, "report": report}


def bellman_trace(doc: dict, work: Path) -> str:
    """The ``--bellman-trace`` CSV of ``solve`` on ``doc``."""
    config, trace = work / "config.json", work / "trace.csv"
    config.write_text(json.dumps(doc))
    code = cli.main(["solve", "--config", str(config), "--out",
                     str(work / "report.json"), "--bellman-trace", str(trace)])
    assert code == 0
    return trace.read_text()


def verify_stdout(doc: dict, work: Path) -> tuple[int, str]:
    """(exit code, stdout) of ``verify`` on ``doc``."""
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--config", str(config)])
    return code, buf.getvalue()


def _close(want: float, got: float) -> bool:
    return math.isfinite(want) and abs(want - got) <= REL_TOL * (1.0 + abs(want))


def _differences(want, got, path="") -> list:
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{path}: keys {list(want)} != {list(got)}"]
        return [d for k in want for d in _differences(want[k], got[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        if path.endswith("/mixture/policies"):
            return [] if want == got else [f"{path}: policies differ"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in _differences(a, b, f"{path}/{i}")]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)
            and (isinstance(want, float) or isinstance(got, float))):
        # render_json writes 0.0 as 0, so a float may read back as an int
        if _close(want, got):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{path}: {want!r} != {got!r}"]


# a number as the CLI prints one (signed, decimal point and exponent
# optional); a name such as "g-zero" or "bellman-converges" stays text
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


def _text_differences(want: str, got: str) -> list:
    """Lines whose text between numbers differs, or a number beyond the
    tolerance; the line count must match."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return [f"{len(want_lines)} lines != {len(got_lines)}"]
    out = []
    for i, (a, b) in enumerate(zip(want_lines, got_lines), start=1):
        same = (_NUMBER.split(a) == _NUMBER.split(b)
                and all(_close(float(x), float(y)) for x, y in
                        zip(_NUMBER.findall(a), _NUMBER.findall(b))))
        if not same:
            out.append(f"line {i}: {a!r} != {b!r}")
    return out


@pytest.mark.parametrize("name", list(GOLDEN_DOCS))
def test_solve_report_matches_its_golden(tmp_path, name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = solve_report(GOLDEN_DOCS[name], tmp_path)
    assert _differences(want, got) == []


@pytest.mark.parametrize("name", list(TRACE_DOCS))
def test_bellman_trace_matches_its_golden(tmp_path, name):
    want = (GOLDEN_DIR / f"{name}.trace.csv").read_text()
    got = bellman_trace(TRACE_DOCS[name], tmp_path)
    assert _text_differences(want, got) == []


@pytest.mark.parametrize("name", list(VERIFY_DOCS))
def test_verify_stdout_matches_its_golden(tmp_path, name):
    want = (GOLDEN_DIR / f"{name}.txt").read_text()
    code, got = verify_stdout(VERIFY_DOCS[name], tmp_path)
    assert _text_differences(want, got) == []
    assert code == (0 if want.splitlines()[-1].startswith("OK") else 5)


def test_golden_comparison_is_exact_where_it_should_be():
    report = {"n": 3, "ok": True, "x": 0, "y": 1.5, "s": "a",
              "mixture": {"policies": [[[0.0, 1.0, "a"]]]}}
    assert _differences(report, json.loads(json.dumps(report))) == []
    for key, value in (("n", 4), ("ok", False), ("ok", 1),
                       ("y", 1.5 + 3e-12), ("s", "b")):
        assert _differences(report, {**report, key: value}) != []
    assert _differences(report, {**report, "x": 1e-13, "y": 1.5 + 2e-12}) == []
    moved = {**report, "mixture": {"policies": [[[0.0, 1.0 + 1e-15, "a"]]]}}
    assert _differences(report, moved) == ["/mixture/policies: policies differ"]


def test_text_comparison_is_exact_where_it_should_be():
    line = "PASS bellman-converges-g-ones: iterations=14 residual=3.169e-10\n"
    assert _text_differences(line, line) == []
    # the rule of the solve goldens: |a - b| <= 1e-12 (1 + |a|)
    assert _text_differences("iteration,residual\n2,0\n",
                             "iteration,residual\n2,1e-13\n") == []
    for other in ("FAIL bellman-converges-g-ones: iterations=14 residual=3.169e-10",
                  "PASS bellman-converges-g-twos: iterations=14 residual=3.169e-10",
                  "PASS bellman-converges-g-ones: iterations=15 residual=3.169e-10",
                  "PASS bellman-converges-g-ones: iterations=14 residual=3.169e-09",
                  "PASS bellman-converges-g-ones: iterations=14 residual=3.169e-10 x",
                  line + "OK\n"):
        assert _text_differences(line, other) != []
