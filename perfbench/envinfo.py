"""The environment block printed with every result."""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import platform
import sys
from pathlib import Path

import numpy
import scipy

# Thread-count getters of the OpenBLAS builds numpy and scipy ship with.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> dict[str, int | None]:
    """Threads in effect in each bundled OpenBLAS, by library file name."""
    out: dict[str, int | None] = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            out[os.path.basename(path)] = None
            for name in _BLAS_GETTERS:
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    out[os.path.basename(path)] = int(getter())
                    break
    return out


def environment(mmap_threshold: int | None) -> dict:
    from hiersplines import kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_threads": blas_threads(),
        "malloc_mmap_threshold": mmap_threshold,
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "HIERSPLINES_THREADS", "HIERSPLINES_BACKEND")},
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }
