"""End-to-end serving runtime tests, including the LLaMA-7B FC acceptance run.

The acceptance criteria mirror ISSUE 2: a compiled LLaMA-7B FC plan serves
>= 64 concurrent requests through the micro-batcher with outputs bit-identical
to per-request ``weight @ activation``, and batched serving throughput is
>= 2x a sequential one-request-at-a-time loop over the same plan's engine
(the repo's pre-serving API: one ``engine.multiply`` call per request against
the warm static-scoreboard LRU cache, which re-fingerprints the weights on
every call — exactly the per-request cost the plan-level precompute removes).
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import BackpressureError, ServingError
from repro.serving import RequestQueue, Server, compile_workload
from repro.serving.request import PENDING, Request
from repro.transarray import TransitiveArrayAccelerator
from repro.workloads import synthetic_gemm_workload


class TestServerLifecycle:
    def _plan(self, **kwargs):
        workload = synthetic_gemm_workload(num_layers=2, n=16, k=12, m=4, weight_bits=5)
        return compile_workload(workload, seed=13, **kwargs)

    def test_submit_requires_started_server_and_valid_request(self):
        plan = self._plan()
        server = Server(plan, num_workers=1, max_batch=2)
        activation = np.ones((12, 1), dtype=np.int64)
        with pytest.raises(ServingError):
            server.submit("layer0", activation)  # not started
        with server:
            with pytest.raises(ServingError):
                server.submit("missing", activation)
            with pytest.raises(ServingError):
                server.submit("layer0", np.ones((5, 1), dtype=np.int64))
            with pytest.raises(ServingError):
                server.submit("layer0", np.ones((12, 0), dtype=np.int64))
            request = server.submit("layer0", activation)
            assert np.array_equal(
                request.result(timeout=10.0), plan.layer("layer0").weight @ activation
            )
        with pytest.raises(ServingError):
            server.submit("layer0", activation)  # closed
        with pytest.raises(ServingError):
            Server(plan, num_workers=0)
        with pytest.raises(ServingError):
            Server(plan, max_batch=0)

    def test_concurrent_multi_layer_serving_and_report(self):
        plan = self._plan(accelerator=TransitiveArrayAccelerator(samples_per_gemm=2))
        rng = np.random.default_rng(17)
        layers = [f"layer{i % 2}" for i in range(32)]
        activations = [
            rng.integers(-64, 64, size=(12, int(rng.integers(1, 4))), dtype=np.int64)
            for _ in range(32)
        ]
        results = {}
        errors = []

        with Server(plan, num_workers=3, max_batch=4, max_pending=64) as server:
            def client(index):
                try:
                    request = server.submit(layers[index], activations[index])
                    results[index] = request.result(timeout=30.0)
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(32)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        for index in range(32):
            expected = plan.layer(layers[index]).weight @ activations[index]
            assert np.array_equal(results[index], expected)

        report = server.report()
        assert report.num_requests == 32
        assert report.num_failed == 0
        assert report.total_columns == sum(a.shape[1] for a in activations)
        assert report.requests_per_layer == {"layer0": 16, "layer1": 16}
        assert 0.0 < report.latency_p50_s <= report.latency_p99_s
        assert report.mean_batch_size >= 1.0
        assert report.plan_hits == report.num_batches
        assert report.plan_misses == 2
        assert report.op_counts is not None and report.op_counts.transitive_ops > 0
        assert report.attributed_cycles is not None and report.attributed_cycles > 0
        assert report.attributed_energy is not None
        assert report.attributed_energy.total_nj > 0
        # The report's totals are the sum of the per-request attributions.
        expected = [
            plan.attribute(layers[index], activations[index].shape[1])
            for index in range(32)
        ]
        assert report.attributed_cycles == sum(a.cycles for a in expected)
        assert report.attributed_energy.total_nj == pytest.approx(
            sum(a.energy.total_nj for a in expected)
        )
        assert report.render()  # table renders without error
        assert report.as_dict()["num_requests"] == 32

    def test_backpressure_rejection_is_counted(self):
        plan = self._plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=1)
        gate = threading.Event()
        original = server.batcher.execute_once

        def gated_execute_once(batch):
            gate.wait(10.0)
            return original(batch)

        server.batcher.execute_once = gated_execute_once
        activation = np.ones((12, 1), dtype=np.int64)
        try:
            server.start()
            first = server.submit("layer0", activation)
            deadline = time.perf_counter() + 5.0
            while len(server.queue) and time.perf_counter() < deadline:
                time.sleep(0.001)  # wait for the (gated) worker to dequeue it
            queued = server.submit("layer0", activation)  # fills the bounded queue
            with pytest.raises(BackpressureError):
                server.submit("layer0", activation)
            assert server.queue.rejected == 1
            # the rejected submission never produced a runnable request: the
            # admitted one is still pending, untouched by the rejection
            assert queued.state == PENDING
        finally:
            gate.set()
            server.close()
        assert np.array_equal(
            first.result(timeout=10.0), plan.layer("layer0").weight @ activation
        )
        report = server.report()
        assert report.num_rejected == 1
        assert report.as_dict()["num_rejected"] == 1
        assert report.num_requests == 2  # rejected request never served

    def test_rejected_request_is_never_marked_running(self):
        queue = RequestQueue(max_pending=1)
        admitted = Request(
            0, "layer0", np.ones((12, 1), dtype=np.int64), time.perf_counter()
        )
        rejected = Request(
            1, "layer0", np.ones((12, 1), dtype=np.int64), time.perf_counter()
        )
        queue.put(admitted)
        with pytest.raises(BackpressureError):
            queue.put(rejected)
        assert queue.rejected == 1
        assert rejected.state == PENDING
        assert rejected.started_at is None
        assert len(queue) == 1  # the rejection left the queue untouched

    def test_submit_rejects_inexact_activation_dtypes(self):
        plan = self._plan()
        with Server(plan, num_workers=1) as server:
            with pytest.raises(ServingError):
                server.submit("layer0", np.full((12, 1), 1.5))  # silent floor
            with pytest.raises(ServingError):
                server.submit("layer0", np.full((12, 1), np.nan))
            with pytest.raises(ServingError):
                server.submit("layer0", np.full((12, 1), np.inf))
            with pytest.raises(ServingError):
                server.submit("layer0", np.full((12, 1), 2.0**60))  # not exact
            with pytest.raises(ServingError):
                server.submit("layer0", np.ones((12, 1), dtype=np.complex128))
            # exactly-integral floats and narrower integer dtypes are fine
            exact_float = server.submit("layer0", np.full((12, 1), 3.0))
            narrow_int = server.submit("layer0", np.ones((12, 1), dtype=np.int8))
            weight = plan.layer("layer0").weight
            assert np.array_equal(
                exact_float.result(timeout=10.0),
                weight @ np.full((12, 1), 3, dtype=np.int64),
            )
            assert np.array_equal(
                narrow_int.result(timeout=10.0),
                weight @ np.ones((12, 1), dtype=np.int64),
            )


class TestLlamaFcAcceptance:
    """ISSUE 2 acceptance: 64 concurrent requests on a LLaMA-7B FC plan.

    Drives the shared harness in ``benchmarks/bench_serving.py`` (the same
    code the CI throughput gate runs) so the acceptance scenario and the
    published ``BENCH_serving.json`` numbers can never drift apart.  The
    harness itself asserts every output bit-identical to
    ``weight @ activation`` before returning.
    """

    def test_64_concurrent_requests_bit_identical_and_2x_sequential(self):
        import importlib.util
        from pathlib import Path

        bench_path = (
            Path(__file__).resolve().parents[2] / "benchmarks" / "bench_serving.py"
        )
        spec = importlib.util.spec_from_file_location("bench_serving", bench_path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)

        results = bench.run(write=False)
        assert results["bit_identical"] is True
        assert results["num_requests"] >= 64
        assert results["serving"]["num_requests"] == results["num_requests"]
        assert results["serving"]["max_batch_size"] > 1  # batching happened
        assert results["serving"]["latency_p99_s"] > 0.0
        assert results["speedup_vs_sequential"] >= 2.0, (
            f"batched serving is only {results['speedup_vs_sequential']:.2f}x "
            f"the sequential single-GEMM loop"
        )
