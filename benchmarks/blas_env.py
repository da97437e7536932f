"""Pin BLAS to one thread before NumPy loads it.

Every benchmark imports this module before NumPy, as ``perfbench/run.py``
does: the serving workers, not BLAS threads, supply the parallelism, and a
single BLAS thread keeps timings comparable across machines.  The pinned
values are recorded in each benchmark's JSON.
"""

import os

BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _name in BLAS_THREAD_ENV:
    os.environ[_name] = "1"


def blas_threads_env() -> dict:
    """The BLAS thread variables as this process sees them."""
    return {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
