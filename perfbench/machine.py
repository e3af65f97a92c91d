"""Facts about the machine and interpreter, printed with every result."""

from __future__ import annotations

import os
import platform

# BLAS thread pools are pinned to one thread so that load comes from a
# single process with one compute thread; set before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(kernels_module) -> dict:
    import numpy as np

    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": numba_importable,
        "kernel_route": "numba" if kernels_module.NUMBA_ENABLED else "numpy",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "load": "one process, one client, closed loop",
        "limits": "CPU frequency is not pinned and caches are not dropped: "
                  "a sandboxed run cannot do either",
    }
