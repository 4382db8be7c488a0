"""The benchmark tracer patches module attributes by name; keep them there.

``perfbench/tracing.py`` wraps functions such as ``impulsecontrol.dual.solve_W``
and ``impulsecontrol.cli.discretize`` while a traced benchmark call runs.  A
renamed or removed attribute would only surface when the benchmark runs, so
this test loads the tracer by path (read-only) and installs it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracing = _load_tracing()
    before = [getattr(mod, attr) for mod, attr, _, _ in tracing.PATCHES]
    with tracing.Tracer().installed():
        patched = [getattr(mod, attr) for mod, attr, _, _ in tracing.PATCHES]
        assert all(p is not b for p, b in zip(patched, before))
    after = [getattr(mod, attr) for mod, attr, _, _ in tracing.PATCHES]
    assert all(a is b for a, b in zip(after, before))


def test_tracer_reads_the_kernel_tables(small_mdp):
    # ``_mdp_bytes`` reads next_lo, next_hi, w_lo and w_hi by name; they are
    # views of the kernel, so their bytes are the kernel's indices and data
    tracing = _load_tracing()
    k = small_mdp.kernel
    expected = (k.indices.nbytes + k.data.nbytes
                + small_mdp.costs[0].nbytes + small_mdp.survival.nbytes)
    assert tracing._mdp_bytes(small_mdp) == {"sweep_bytes": expected}
