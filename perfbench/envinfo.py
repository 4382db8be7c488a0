"""Environment record written with every benchmark result (read-only probes)."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    info = deps.get("blas", {})
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    # numpy's bundled OpenBLAS reports its pool size through its C API
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def _caches() -> dict:
    """Unified/data cache sizes by level, from sysfs (read only)."""
    out = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(idx, "level").read_text().strip()
            kind = Path(idx, "type").read_text().strip()
            size = Path(idx, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_commit(root: Path):
    """HEAD commit of a git checkout at ``root``; None outside one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": _blas(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
        "machine": platform.machine(),
    }
