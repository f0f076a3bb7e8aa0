"""Import the edgehodge package from this checkout's ``src`` directory.

The benchmark measures the source tree it sits in, never a copy installed
elsewhere, so the package is imported from ``<checkout>/src`` and nowhere
else.  Thread caps for the numeric libraries must be in the environment
before numpy is first imported, which is why ``load`` sets them.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread for BLAS/LAPACK: the machine this benchmark is sized for has
# two cores, and the program's own work runs in the main thread.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS_ENV = "EDGEHODGE_THREADS"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable edgehodge source tree."""


def set_thread_env() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # the run workload is defined single-threaded; a worker count inherited
    # from the caller's shell would silently change what is measured
    os.environ.pop(THREADS_ENV, None)


def load():
    """Return the ``edgehodge`` package imported from ``SRC``."""
    if not (SRC / "edgehodge" / "__init__.py").is_file():
        raise ProgramMissing(f"no edgehodge package under {SRC}")
    set_thread_env()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("edgehodge")
    if Path(pkg.__file__).resolve().parent != SRC / "edgehodge":
        raise ProgramMissing(f"edgehodge resolved to {pkg.__file__}, not under {SRC}")
    return pkg


def environment() -> dict:
    """The settings a result depends on, recorded with every result."""
    from edgehodge import elim

    return {
        "python": sys.version.split()[0],
        "elim_backend": getattr(elim, "BACKEND", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
    }
