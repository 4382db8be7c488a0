"""``solve`` reports held against committed golden files.

Each golden in ``tests/golden/`` is the exit code and the report of
``impulsecontrol solve`` on one document, without ``wall_time_seconds``.
Integers, strings, booleans and the mixture's policies must match exactly;
every other float within 1e-12 relative, since another numpy or SuperLU
build may round differently.  ``tests/write_goldens.py`` rewrites them.
"""

import json
import math
from pathlib import Path

import pytest

import impulsecontrol.cli as cli

from conftest import BANDS, J2_DOC, custom_two_action_off_grid_doc

GOLDEN_DIR = Path(__file__).parent / "golden"
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


GOLDEN_DOCS = _golden_docs()


def solve_report(doc: dict, work: Path) -> dict:
    """{"exit_code", "report"} of ``solve`` on ``doc``, without its wall time."""
    config, out = work / "config.json", work / "report.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["solve", "--config", str(config), "--out", str(out)])
    report = json.loads(out.read_text())
    del report["wall_time_seconds"]
    return {"exit_code": code, "report": report}


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
        if math.isfinite(want) and abs(want - got) <= REL_TOL * (1.0 + abs(want)):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{path}: {want!r} != {got!r}"]


@pytest.mark.parametrize("name", list(GOLDEN_DOCS))
def test_solve_report_matches_its_golden(tmp_path, name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = solve_report(GOLDEN_DOCS[name], tmp_path)
    assert _differences(want, got) == []


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
