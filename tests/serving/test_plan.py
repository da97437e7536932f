"""Model-plan compilation and planned execution: exactness and validation."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import TransitiveGemmEngine
from repro.errors import ServingError, SimulationError, WorkloadError
from repro.serving import compile_workload
from repro.workloads import (
    GemmShape,
    GemmWorkload,
    attention_gemms,
    resnet18_gemms,
    synthetic_gemm_workload,
)


def _workload(num_layers=3, n=24, k=20, m=8, weight_bits=6):
    return synthetic_gemm_workload(
        num_layers=num_layers, n=n, k=k, m=m, weight_bits=weight_bits
    )


class TestWorkloadLayers:
    def test_layers_is_uniform_across_builders(self):
        for workload in (
            _workload(),
            attention_gemms("attn", num_heads=2, head_dim=4, sequence_length=8),
            resnet18_gemms(),
        ):
            layers = workload.layers()
            assert layers == tuple(workload.gemms)
            assert all(shape.name for shape in layers)

    def test_layer_lookup(self):
        workload = _workload()
        assert workload.layer("layer1").name == "layer1"
        with pytest.raises(WorkloadError):
            workload.layer("missing")


class TestGemmPlan:
    def test_planned_multiply_is_bit_identical(self):
        rng = np.random.default_rng(0)
        engine = TransitiveGemmEngine(transrow_bits=4)
        weight = rng.integers(-8, 8, size=(17, 13), dtype=np.int64)
        plan = engine.plan(weight, weight_bits=4)
        for m in (1, 3, 16):
            activation = rng.integers(-128, 128, size=(13, m), dtype=np.int64)
            report = engine.multiply_planned(plan, activation)
            assert np.array_equal(report.output, weight @ activation)
            assert report.op_counts == engine.multiply(weight, activation, 4).op_counts

    def test_multiply_many_splits_outputs(self):
        rng = np.random.default_rng(1)
        engine = TransitiveGemmEngine(transrow_bits=8)
        weight = rng.integers(-128, 128, size=(31, 22), dtype=np.int64)
        plan = engine.plan(weight, weight_bits=8)
        activations = [
            rng.integers(-64, 64, size=(22, cols), dtype=np.int64)
            for cols in (1, 4, 2, 7)
        ]
        report = engine.multiply_many(plan, activations)
        assert report.batch_size == 4
        assert report.total_columns == 14
        for activation, output in zip(activations, report.outputs):
            assert np.array_equal(output, weight @ activation)

    def test_plan_leaves_the_lru_cache_untouched(self):
        rng = np.random.default_rng(2)
        engine = TransitiveGemmEngine(transrow_bits=8)
        weight = rng.integers(-8, 8, size=(10, 10), dtype=np.int64)
        before = engine.scoreboard_cache_info()
        engine.plan(weight, weight_bits=4)
        assert engine.scoreboard_cache_info() == before
        activation = rng.integers(-4, 4, size=(10, 2), dtype=np.int64)
        engine.multiply(weight, activation, 4)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 1, 1)

    def test_plan_retains_at_most_13_5_bytes_per_weight(self):
        # int8 codes (1 B) + float32 (4 B) + float64 (8 B) copies; no packed
        # TransRows in the plan or the engine's cache.
        rng = np.random.default_rng(5)
        weight = rng.integers(-8, 8, size=(512, 512), dtype=np.int64)
        TransitiveGemmEngine().plan(weight[:16, :16], weight_bits=4)  # lattice tables
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine = TransitiveGemmEngine()
            plan = engine.plan(weight, weight_bits=4)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plan.weight.dtype == np.int8
        assert retained / weight.size <= 13.5
        assert engine.scoreboard_cache_info().entries == 0

    def test_compiled_engine_cache_stays_empty(self):
        plan = compile_workload(_workload(), seed=2)
        assert plan.engine.scoreboard_cache_info().entries == 0

    def test_plan_validation(self):
        rng = np.random.default_rng(3)
        engine = TransitiveGemmEngine(transrow_bits=8)
        weight = rng.integers(-8, 8, size=(6, 6), dtype=np.int64)
        plan = engine.plan(weight, weight_bits=4)
        with pytest.raises(SimulationError):
            engine.plan(np.zeros(3), weight_bits=4)  # not 2-D
        # The range check runs before the narrowing cast: no code outside
        # weight_bits may wrap into the pinned int8 weights (2**40 would
        # become 0).
        for bits, value, dtype in (
            (8, 128, np.int16), (8, 128, np.int64), (8, -129, np.int16),
            (8, -129, np.int64), (4, 8, np.int8), (4, 8, np.int64),
            (8, 2**40, np.int64), (8, -(2**63), np.int64),
        ):
            bad = np.zeros((6, 6), dtype=dtype)
            bad[2, 3] = value
            with pytest.raises(SimulationError):
                engine.plan(bad, weight_bits=bits)
        with pytest.raises(SimulationError):
            engine.multiply_planned(plan, np.zeros((5, 2), dtype=np.int64))  # bad k
        with pytest.raises(SimulationError):
            engine.multiply_many(plan, [])
        other = TransitiveGemmEngine(transrow_bits=4)
        with pytest.raises(SimulationError):
            other.multiply_planned(plan, np.zeros((6, 1), dtype=np.int64))


class TestCompileWorkload:
    def test_compiled_plan_serves_every_layer_exactly(self):
        workload = _workload()
        plan = compile_workload(workload, seed=11)
        rng = np.random.default_rng(4)
        for name in plan.layer_names():
            layer = plan.layer(name)
            activation = rng.integers(-128, 128, size=(layer.shape.k, 3), dtype=np.int64)
            assert np.array_equal(plan.run(name, activation), layer.weight @ activation)
        assert plan.op_counts.total_transrows > 0
        assert len(plan) == len(workload.layers())

    def test_layer_subset_and_unknown_layer(self):
        workload = _workload(num_layers=4)
        plan = compile_workload(workload, layer_names=["layer2"], seed=5)
        assert plan.layer_names() == ["layer2"]
        with pytest.raises(ServingError):
            plan.layer("layer0")
        with pytest.raises(ServingError):
            compile_workload(workload, layer_names=["nope"])
        with pytest.raises(ServingError):
            compile_workload(workload, layer_names=[])

    def test_weight_provider_and_reproducible_sampling(self):
        workload = _workload(num_layers=2)
        fixed = {
            shape.name: np.full((shape.n, shape.k), 3, dtype=np.int64)
            for shape in workload.layers()
        }
        plan = compile_workload(workload, weight_provider=lambda s: fixed[s.name])
        assert np.array_equal(plan.layer("layer0").weight, fixed["layer0"])

        bad = compile_workload  # provider returning the wrong shape must raise
        with pytest.raises(ServingError):
            bad(workload, weight_provider=lambda s: np.zeros((1, 1), dtype=np.int64))

        plan_a = compile_workload(workload, seed=99)
        plan_b = compile_workload(workload, seed=99)
        assert np.array_equal(plan_a.layer("layer1").weight, plan_b.layer("layer1").weight)

    def test_duplicate_layer_names_rejected(self):
        shape = GemmShape("dup", 4, 4, 4, 4, 8)
        workload = GemmWorkload(name="dups", gemms=[shape, shape])
        with pytest.raises(ServingError):
            compile_workload(workload)
