"""What a result was measured on: interpreter, libraries, BLAS threads, caches."""

import os
import platform
from pathlib import Path

import numpy as np
import scipy

from bootstrap import BLAS_THREAD_VARS

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _blas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}


def _thread_count():
    """Threads of this process as the kernel reports them, or None."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def process_record():
    """Interpreter, library versions and BLAS threading of the calling process."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "process_threads": _thread_count(),
    }


def _size_bytes(text):
    text = text.strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:].upper(), 1)
    return int(text.rstrip("KkMmGg")) * scale


def last_level_cache():
    """``(level, bytes)`` of the largest-level cache cpu0 reports, or None."""
    best = None
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and (best is None or level > best[0]):
            best = (level, size)
    return best


def machine_record():
    """Processors this process may run on, and the last-level cache."""
    llc = last_level_cache()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "llc_level": llc[0] if llc else None,
        "llc_bytes": llc[1] if llc else None,
    }
