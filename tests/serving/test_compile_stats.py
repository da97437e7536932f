"""Serving-side kernel plumbing: compile stats, reports, degraded bypass."""

import importlib

import numpy as np
import pytest

from repro.serving import CompileStats, Server, compile_workload
from repro.workloads import synthetic_gemm_workload


def _workload(num_layers=2, n=24, k=20, m=8, weight_bits=4):
    return synthetic_gemm_workload(
        num_layers=num_layers, n=n, k=k, m=m, weight_bits=weight_bits,
        name="kernel-serving",
    )


class TestCompileStats:
    def test_compile_workload_records_stats(self):
        plan = compile_workload(_workload())
        stats = plan.compile_stats
        assert isinstance(stats, CompileStats)
        assert stats.num_layers == 2
        assert stats.compile_s > 0.0
        assert 0.0 <= stats.lowering_s <= stats.compile_s
        # Two 24x20 layers, each pinned as float32 and float64 weights.
        assert stats.kernel_bytes == 2 * 24 * 20 * (4 + 8)
        assert set(stats.per_layer_compile_s) == {"layer0", "layer1"}

    def test_every_layer_carries_kernel_state(self):
        plan = compile_workload(_workload())
        for name in plan.layer_names():
            gemm_plan = plan.layer(name).gemm_plan
            for copy, dtype in ((gemm_plan.weight_f32, np.float32),
                                (gemm_plan.weight_f64, np.float64)):
                assert copy.dtype == dtype
                assert not copy.flags.writeable
                assert np.array_equal(copy, gemm_plan.weight)
            expected = int(np.abs(gemm_plan.weight).sum(axis=1).max())
            assert gemm_plan.row_bound == expected
            assert isinstance(gemm_plan.row_bound, int)

    def test_weights_are_pinned_in_their_narrowest_dtype(self):
        # OliVe's outlier codes widen its 8-bit layer past int8.
        plan = compile_workload(_workload(), quant_schemes={"layer0": "olive-8"})
        assert 8 < plan.compile_stats.per_layer_bits["layer0"] <= 16
        assert plan.layer("layer0").weight.dtype == np.int16
        assert plan.layer("layer1").weight.dtype == np.int8

    def test_as_dict_round_trips_the_bench_schema(self):
        stats = compile_workload(_workload()).compile_stats.as_dict()
        assert set(stats) == {
            "num_layers", "compile_s", "lowering_s", "kernel_bytes",
            "per_layer_compile_s", "per_layer_bits", "per_layer_scheme",
        }


class TestServingReport:
    def test_report_embeds_compile_stats(self):
        plan = compile_workload(_workload(num_layers=1))
        rng = np.random.default_rng(0)
        with Server(plan, num_workers=1, max_batch=4) as server:
            futures = [
                server.submit(rng.integers(-8, 8, size=(20, 1), dtype=np.int64))
                for _ in range(8)
            ]
            for future in futures:
                future.result(timeout=10.0)
            report = server.report()
        assert report.compile_stats is plan.compile_stats
        summary = report.as_dict()
        assert summary["compile_stats"]["num_layers"] == 1
        rendered = report.render()
        assert "kernel weights" in rendered
        assert "offline compile" in rendered

    def test_kernel_and_oracle_serving_agree(self):
        plan = compile_workload(_workload(num_layers=1))
        rng = np.random.default_rng(1)
        act = rng.integers(-8, 8, size=(20, 3), dtype=np.int64)
        served = plan.run("layer0", act)
        degraded = plan.run_degraded("layer0", act)
        assert np.array_equal(served, degraded)
        assert np.array_equal(served, plan.layer("layer0").weight @ act)


#: The engine module itself: the package attribute of the same name is the
#: ``transitive_gemm`` convenience function.
ENGINE_MODULE = importlib.import_module("repro.core.transitive_gemm")


class TestDegradedBypass:
    def test_degraded_fallback_never_touches_the_kernel(self, monkeypatch):
        # Booby-trap the kernel: if the degraded path executed it, it would
        # blow up — the fallback must stay fully independent.
        plan = compile_workload(_workload(num_layers=1))
        layer = plan.layer("layer0")

        def boom(gemm_plan, activation):
            raise AssertionError("degraded path executed the kernel")

        monkeypatch.setattr(ENGINE_MODULE, "exact_matmul", boom)
        rng = np.random.default_rng(2)
        act = rng.integers(-8, 8, size=(20, 2), dtype=np.int64)
        output = plan.run_degraded("layer0", act)
        assert np.array_equal(output, layer.weight @ act)
        with pytest.raises(AssertionError):
            plan.run("layer0", act)  # the fast path *does* use the kernel

    def test_degraded_output_is_the_python_int_product(self):
        plan = compile_workload(_workload(num_layers=1, weight_bits=8))
        weight = plan.layer("layer0").weight
        rng = np.random.default_rng(3)
        # Large activations: the int64 accumulation is still exact here
        # (|y| < 20 * 128 * 2**40 < 2**63), and the object product proves it.
        act = rng.integers(-(2**40), 2**40, size=(20, 3), dtype=np.int64)
        output = plan.run_degraded("layer0", act)
        assert output.dtype == np.int64
        expected = weight.astype(object) @ act.astype(object)
        assert output.astype(object).tolist() == expected.tolist()
