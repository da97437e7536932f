"""BLAS thread pinning at server start."""

import ctypes
import logging
import os

import pytest

from repro.serving import Server, blas, compile_workload
from repro.workloads import synthetic_gemm_workload


def _openblas_threads():
    """The loaded OpenBLAS's thread count, or ``None`` without a getter."""
    for path in blas._loaded_blas_libraries():
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


#: Thread variables a loaded BLAS no longer reads; pinning must not touch them.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def unpinned_env(monkeypatch):
    """Unpinned thread variables, restored by monkeypatch afterwards."""
    for name in THREAD_ENV:
        monkeypatch.setenv(name, "2")


def test_server_start_pins_blas_to_one_thread(unpinned_env):
    plan = compile_workload(
        synthetic_gemm_workload(num_layers=1, n=8, k=8, m=2, weight_bits=4)
    )
    with Server(plan, num_workers=1):
        assert _openblas_threads() in (None, 1)
        assert all(os.environ[name] == "2" for name in THREAD_ENV)


def test_missing_setter_warns_once_and_leaves_env(unpinned_env, monkeypatch, caplog):
    monkeypatch.setattr(blas, "_loaded_blas_libraries", lambda: [])
    with caplog.at_level(logging.WARNING, logger=blas.__name__):
        assert blas.pin_blas_threads() is False
    assert len(caplog.records) == 1
    assert all(os.environ[name] == "2" for name in THREAD_ENV)
