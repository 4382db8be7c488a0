"""Measurement loops of the benchmark: instances, gates, metrics, output.

Imported by ``run.py`` once the program's sources are on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from envinfo import environment
from tracing import COUNTS, ROOT_SPAN, UNITS, Tracer, layer_metrics
from workloads import WORKLOADS, Outcome, run_cli, setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

IMPORT_SAMPLES = 9
SETUPS_PER_INSTANCE = 2
# the probe prints the import's wall seconds and its CPU seconds
IMPORT_PROBE = ("import time; c = time.process_time(); t = time.perf_counter(); "
                "import impulsecontrol; "
                "print(repr(time.perf_counter() - t), repr(time.process_time() - c))")


def _import_seconds() -> tuple[float, float]:
    """Time ``import impulsecontrol`` in a fresh interpreter process.

    Returns (wall seconds, CPU seconds).  The import runs on one thread, so
    its CPU time is its work; the wall time adds the time the process waited
    for a core, which on a shared host varies from minute to minute.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    wall, cpu = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cpu)


def _declared(trace: int) -> dict:
    """Metric name -> unit for the last output line, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _tail_percentile(samples: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            rank = math.ceil(p / 100.0 * n)
            return p, sorted(samples)[rank - 1]
    return None


class Bench:
    """One benchmark invocation: its workload, seed, per-call records, and
    the config and report files it writes in a scratch directory."""

    def __init__(self, workload, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.config = tmp / "config.json"
        self.report = tmp / "report.json"
        self.records: list[dict] = []

    def warm_up(self):
        """Load lazy imports (scipy LP, jsonschema) on a tiny instance."""
        text = json.dumps(self.workload.warm_doc)
        self.config.write_text(text)
        code, _ = run_cli(self.workload, self.config, self.report)
        if code != 0:
            sys.exit(f"error: warm-up instance exited with code {code}")
        setup(text)

    def call(self, inst, mdp, tracer=None) -> tuple[float, object, int | None]:
        """Run the user command once and gate its output.

        Returns (wall seconds, outcome, root span id or None).
        """
        root = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, text = run_cli(self.workload, self.config, self.report)
            else:
                with tracer.installed(), tracer.span(ROOT_SPAN, inst.index) as rec:
                    root = rec["id"]
                    code, text = run_cli(self.workload, self.config, self.report)
        except Exception as exc:  # a command that raises is a failed instance
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(-1, [f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0, outcome, root
        wall = time.perf_counter() - t0
        return wall, self.workload.check(inst, mdp, text, code), root

    def prepare(self, inst) -> tuple[list[float], object]:
        """Write the instance config and time the set-up path on it."""
        text = json.dumps(inst.doc)
        self.config.write_text(text)
        times = []
        for _ in range(SETUPS_PER_INSTANCE):
            mdp = None  # each set-up starts with no MDP alive
            t0 = time.perf_counter()
            mdp = setup(text)
            times.append(time.perf_counter() - t0)
        return times, mdp

    def record(self, inst, wall, outcome, **extra):
        rec = {"instance": inst.index, "params": inst.params,
               "wall_s": wall, "exit_code": outcome.exit_code,
               "failures": outcome.failures, "errors": outcome.errors}
        rec.update(extra)
        self.records.append(rec)
        for msg in outcome.failures:
            print(f"FAIL instance {inst.index} {inst.params}: {msg}",
                  file=sys.stderr)


def measure(bench: Bench, seconds: float) -> dict:
    """Closed loop with tracing off: end-to-end metrics."""
    walls, setups, imports, errors = [], [], [], {}
    start = time.perf_counter()
    last = 0.0
    for pair in bench.workload.pairs(bench.seed):
        if bench.records and time.perf_counter() + last > start + seconds:
            break
        last = 0.0  # instance time of this pair, without import samples
        for inst in pair:
            now = time.perf_counter()
            setup_times, mdp = bench.prepare(inst)
            wall, outcome, _ = bench.call(inst, mdp)
            bench.record(inst, wall, outcome, setup_s=setup_times)
            walls.append(wall)
            setups += setup_times
            for k, v in outcome.errors.items():
                errors[k] = max(errors.get(k, 0.0), v)
            mdp = None
            last += time.perf_counter() - now
            # import samples are spread over the run, so that a slow spell
            # of the machine does not set all of them
            due = start + seconds * len(imports) / IMPORT_SAMPLES
            while len(imports) < IMPORT_SAMPLES and time.perf_counter() >= due:
                imports.append(_import_seconds())
                due = start + seconds * len(imports) / IMPORT_SAMPLES
    while len(imports) < IMPORT_SAMPLES:
        imports.append(_import_seconds())
    failed = sum(1 for r in bench.records if r["failures"])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_samples": (len(walls), "count"),
        "setup_s": (statistics.median(setups), "s"),
        "setup_samples": (len(setups), "count"),
        "import_s": (statistics.median(cpu for _, cpu in imports), "s"),
        "import_wall_s": (statistics.median(wall for wall, _ in imports), "s"),
        "import_samples": (len(imports), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "fail_rate": (failed / len(bench.records), "ratio"),
    }
    tail = _tail_percentile(walls)
    if tail is not None:
        metrics[f"wall_s_p{tail[0]:g}"] = (tail[1], "s")
    for key in ("g_rel_err", "v0_rel_err"):
        if key in errors:
            metrics[key] = (errors[key], "ratio")
    return metrics


def measure_traced(bench: Bench) -> tuple[dict, list[dict]]:
    """Fixed instances, each traced, untraced, traced: per-layer metrics.

    The first traced call also takes the instance's first-touch costs; the
    metrics come from the second one, and the tracing overhead is the second
    traced wall minus the untraced wall between them.  The counts of the two
    traced calls must agree exactly.
    """
    tracer = Tracer()
    per_instance, overheads = [], []
    instances = itertools.chain.from_iterable(bench.workload.pairs(bench.seed))
    for inst in itertools.islice(instances, bench.workload.trace_instances):
        _, mdp = bench.prepare(inst)
        walls, layers = {}, {}
        for mode in ("traced-a", "untraced", "traced-b"):
            traced = mode != "untraced"
            wall, outcome, root = bench.call(inst, mdp, tracer if traced else None)
            bench.record(inst, wall, outcome, mode=mode)
            walls[mode] = wall
            if traced:
                layers[mode] = layer_metrics(tracer.spans, root,
                                             bench.workload.command)
        m_a, m_b = layers["traced-a"], layers["traced-b"]
        differ = {k: (m_a[k], m_b[k]) for k in COUNTS if m_a[k] != m_b[k]}
        if differ:
            sys.exit(f"error: counts differ between two traced runs of instance "
                     f"{inst.index} (seed {bench.seed}): {differ}")
        per_instance.append(m_b)
        overheads.append(walls["traced-b"] - walls["untraced"])
    metrics = {k: (statistics.median(m[k] for m in per_instance), UNITS[k])
               for k in per_instance[0]}
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics, tracer.spans


def run(args) -> int:
    """Run one benchmark invocation; prints the result, returns 0."""
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        bench = Bench(workload, args.seed, tmp)
        bench.warm_up()
        spans = None
        if args.trace:
            metrics, spans = measure_traced(bench)
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    declared = _declared(args.trace)
    wrong = {k: u for k, u in declared.items() if metrics[k][1] != u}
    if wrong:
        sys.exit(f"error: BENCHMARK.json units {wrong} differ from the measured ones")

    attempted = len(bench.records)
    failed = sum(1 for r in bench.records if r["failures"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(ROOT)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "instances": bench.records}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed")
    print(f"  environment {json.dumps(env)}")
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v!r} {u}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u}
                    for k, u in declared.items()},
    }))
    return 0
