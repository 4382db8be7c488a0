"""Seeded solve/verify benchmark for impulsecontrol.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload fluid-accept --seed 1 --seconds 20 --trace 0

One process, closed loop: a single client runs the seed's instances one after
another through ``impulsecontrol.cli.main`` (in process, from ``src/``) until
``--seconds`` have passed, checks every output, and prints every metric by
name and unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs a fixed number of instances three times each (untraced, traced, traced)
and reports the per-layer metrics of the first traced call; the counts of the
two traced calls must agree exactly, or the run fails.  A result file with the
environment record (and the spans, when traced) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "impulsecontrol" / "__init__.py").is_file():
        sys.exit(f"error: no impulsecontrol sources under {SRC}; run from the "
                 "root of a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
