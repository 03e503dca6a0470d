"""The environment a result was measured in.

Byte-identical outputs and comparable timings both depend on these:
interpreter and library versions, the BLAS build and its thread count,
the CPU and its cache sizes, and the source the program was built from.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy
import scipy

_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas() -> dict:
    info = {}
    try:
        dep = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": dep.get("name"), "version": dep.get("version"),
                "configuration": dep.get("openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        pass
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy: same handle, nothing new starts
        for symbol in _BLAS_THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(name: str):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache_bytes": _cache_bytes("SC_LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _cache_bytes("SC_LEVEL3_CACHE_SIZE"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "workload": workload,
        "seed": seed,
    }
