"""Process set-up shared by the benchmark's entry points.

Call :func:`setup` before anything imports numpy: it pins the BLAS
libraries to one thread and puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark measures the sources next to it and not an
installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def setup():
    """Pin BLAS to one thread and import ``qcqpd`` from ``ROOT/src``.

    Exits with status 2 when the checkout has no ``src/qcqpd`` package.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.setup() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "qcqpd" / "__init__.py").is_file():
        print(f"perfbench: no qcqpd package under {SRC}; run from a repository checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
