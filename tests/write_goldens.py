"""Rewrite the golden outputs that ``test_golden.py`` checks.

Run from the repository root with the package importable:

    PYTHONPATH=src python tests/write_goldens.py

It writes the ``solve`` reports, the ``--bellman-trace`` CSVs and the
``verify`` stdouts.  A change that rewrites the goldens must say why: their
point is that the answers do not move unnoticed.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import (GOLDEN_DIR, GOLDEN_DOCS, TRACE_DOCS,  # noqa: E402
                         VERIFY_DOCS, bellman_trace, solve_report, verify_stdout)


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, doc in GOLDEN_DOCS.items():
            golden = solve_report(doc, Path(work))
            (GOLDEN_DIR / f"{name}.json").write_text(
                json.dumps(golden, separators=(",", ":")) + "\n")
            print(f"{name}: exit {golden['exit_code']}")
        for name, doc in TRACE_DOCS.items():
            (GOLDEN_DIR / f"{name}.trace.csv").write_text(
                bellman_trace(doc, Path(work)))
            print(f"{name}: trace")
        for name, doc in VERIFY_DOCS.items():
            code, text = verify_stdout(doc, Path(work))
            (GOLDEN_DIR / f"{name}.txt").write_text(text)
            print(f"{name}: exit {code}")


if __name__ == "__main__":
    main()
