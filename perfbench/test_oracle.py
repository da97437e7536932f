"""Tests of the benchmark's exact chain oracle.

Run with ``python -m pytest perfbench/test_oracle.py`` from the repo root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from perfbench.oracle import ChainOracle, digest, matches  # noqa: E402


def python_int_chain(weights, x):
    """The chain in nested lists of Python ints: slow, but it cannot wrap."""
    cols = [[int(v) for v in x[:, j]] for j in range(x.shape[1])]
    for w in weights:
        rows = [[int(v) for v in row] for row in w]
        cols = [[sum(a * b for a, b in zip(row, col)) for row in rows] for col in cols]
    return cols


@pytest.mark.parametrize("seed", range(6))
def test_oracle_agrees_with_python_ints(seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(3, 24, size=6)]
    wbits = int(rng.choice([2, 4, 8]))
    half = 1 << (wbits - 1)
    weights = [
        rng.integers(-half, half, size=(dims[i + 1], dims[i]), dtype=np.int64)
        for i in range(5)
    ]
    # Small columns, a large one and one near the int64 edge: every
    # arithmetic tier runs.
    x = rng.integers(-128, 128, size=(dims[0], 4), dtype=np.int64)
    x[:, 2] *= 1 << 40
    x[:, 3] *= 1 << 55
    oracle = ChainOracle(weights)
    exact = oracle.run(x)[-1]
    expected = python_int_chain(weights, x)
    for j, col in enumerate(expected):
        assert [int(v) for v in exact[:, j]] == col
    assert oracle.columns_by_dtype["float64"] > 0
    assert oracle.columns_by_dtype["object"] > 0


@pytest.mark.parametrize("peak", [(1 << 52) + 3, (1 << 61) - 1])
def test_oracle_int64_tier_matches_python_ints(peak):
    # Bound 3 * peak lies in [2**53, 2**63): the int64 tier, split into
    # float64 limbs below 2**62 and a plain int64 product above.
    rng = np.random.default_rng(peak % 97)
    w = rng.choice(np.array([-1, 1], dtype=np.int64), size=(4, 3))
    x = rng.integers(-peak, peak, size=(3, 2), dtype=np.int64)
    x[0, 0] = peak
    oracle = ChainOracle([w])
    exact = oracle.run(x)[-1]
    assert oracle.columns_by_dtype["int64"] > 0
    assert exact.dtype == np.int64
    for j, col in enumerate(python_int_chain([w], x)):
        assert [int(v) for v in exact[:, j]] == col


def test_oracle_rejects_wrapped_w8_chain_output():
    """A W8A8 1024/2752 five-stage chain exceeds int64; the server wraps it."""
    from repro.serving import Server, compile_workload
    from repro.workloads.llama import LlamaConfig, llama_block_gemms

    config = LlamaConfig("w8-block", 1024, 2752, 8, 8, 1)
    workload = llama_block_gemms(
        "w8-block", sequence_length=1, weight_bits=8, activation_bits=8,
        config=config,
    )
    plan = compile_workload(workload, graph="chain", seed=3)
    x = np.random.default_rng(4).integers(-128, 128, size=(1024, 1), dtype=np.int64)
    with Server(plan, num_workers=1, max_batch=1, max_pending=4) as server:
        served = server.submit(x).result(timeout=120.0)
    oracle = ChainOracle([plan.layer(name).weight for name in plan.layer_names()])
    exact = oracle.run(x)[-1]
    assert exact.dtype == object
    assert max(abs(int(v)) for v in exact[:, 0]) >= 1 << 63
    assert not matches(digest(served), exact)


def test_oracle_accepts_served_w4_chain_output():
    from repro.serving import Server, compile_workload
    from repro.workloads.llama import LlamaConfig, llama_block_gemms

    config = LlamaConfig("w4-block", 256, 688, 8, 8, 1)
    workload = llama_block_gemms(
        "w4-block", sequence_length=1, weight_bits=4, activation_bits=8,
        config=config,
    )
    plan = compile_workload(workload, graph="chain", seed=5)
    x = np.random.default_rng(6).integers(-128, 128, size=(256, 3), dtype=np.int64)
    with Server(plan, num_workers=1, max_batch=1, max_pending=4) as server:
        served = server.submit(x).result(timeout=120.0)
    oracle = ChainOracle([plan.layer(name).weight for name in plan.layer_names()])
    assert matches(digest(served), oracle.run(x)[-1])


def test_digest_needs_exact_int64_values():
    ints = np.arange(6, dtype=np.int64).reshape(3, 2)
    assert digest(ints) == digest(ints.astype(np.float64))
    assert digest(ints) != digest(ints.reshape(2, 3))
    assert digest(ints + 0.5) is None
    assert digest(np.array([[1 << 64]], dtype=object)) is None
    assert not matches(None, np.array([[1 << 64]], dtype=object))
