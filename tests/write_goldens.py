"""Rewrite the golden ``solve`` reports that ``test_golden.py`` checks.

Run from the repository root with the package importable:

    PYTHONPATH=src python tests/write_goldens.py

A change that rewrites the goldens must say why: their point is that the
answers do not move unnoticed.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import GOLDEN_DIR, GOLDEN_DOCS, solve_report  # noqa: E402


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, doc in GOLDEN_DOCS.items():
            golden = solve_report(doc, Path(work))
            (GOLDEN_DIR / f"{name}.json").write_text(
                json.dumps(golden, separators=(",", ":")) + "\n")
            print(f"{name}: exit {golden['exit_code']}")


if __name__ == "__main__":
    main()
