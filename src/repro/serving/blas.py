"""Pin the BLAS thread pool to one thread while a server runs.

The serving workers already supply the parallelism; a multi-threaded BLAS
under each of them oversubscribes the cores (a 256x256x16 float64 product
measured 7.7 ms instead of 0.07 ms on a 2-vCPU host).  OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only when it is loaded, so :func:`pin_blas_threads`
calls the loaded library's runtime setter through :mod:`ctypes` and also
exports the environment variables, so processes spawned later (the process
tier's shards) load BLAS pinned.
"""

from __future__ import annotations

import ctypes
import logging
import os
import re
from typing import List

logger = logging.getLogger(__name__)

#: Thread-count variables of the common BLAS and OpenMP builds.
BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: Runtime thread-count setters, tried in order on each loaded BLAS library.
_SETTER_SYMBOLS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
    "MKL_Set_Num_Threads", "bli_thread_set_num_threads",
)

#: File names of the shared libraries that may carry those setters.
_BLAS_LIBRARY = re.compile(r"(blas|mkl|blis).*\.so", re.IGNORECASE)


def _loaded_blas_libraries() -> List[str]:
    """Paths of the BLAS shared libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "/" in line}
    except OSError:  # no procfs: nothing to inspect
        return []
    return sorted(path for path in paths if _BLAS_LIBRARY.search(os.path.basename(path)))


def pin_blas_threads() -> bool:
    """Pin BLAS to one thread; returns whether a runtime setter was called.

    When no loaded library exposes a known setter, only the environment is
    pinned and one warning is logged.
    """
    for name in BLAS_THREAD_ENV:
        os.environ[name] = "1"
    pinned = False
    for path in _loaded_blas_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SETTER_SYMBOLS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                pinned = True
                break
    if not pinned:
        logger.warning(
            "no loaded BLAS library exposes a set-num-threads symbol; BLAS "
            "threads may oversubscribe the serving workers"
        )
    return pinned
