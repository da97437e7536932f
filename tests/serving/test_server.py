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


def _activations(plan, count, columns=3, seed=0):
    rng = np.random.default_rng(seed)
    k = plan.layer(plan.layer_names()[0]).shape.k
    return [
        rng.integers(-64, 64, size=(k, columns), dtype=np.int64)
        for _ in range(count)
    ]


class TestServerLifecycle:
    def _plan(self, **kwargs):
        """One-layer plan: it serves as an implicit one-stage pipeline."""
        workload = synthetic_gemm_workload(num_layers=1, n=16, k=12, m=4, weight_bits=5)
        return compile_workload(workload, seed=13, **kwargs)

    def test_submit_requires_started_server_and_valid_request(self):
        plan = self._plan()
        server = Server(plan, num_workers=1, max_batch=2)
        activation = np.ones((12, 1), dtype=np.int64)
        with pytest.raises(ServingError):
            server.submit(activation)  # not started
        with server:
            with pytest.raises(ServingError):
                server.submit(activation, model="missing")
            with pytest.raises(ServingError):
                server.submit(np.ones((5, 1), dtype=np.int64))
            with pytest.raises(ServingError):
                server.submit(np.ones((12, 0), dtype=np.int64))
            request = server.submit(activation)
            assert np.array_equal(
                request.result(timeout=10.0), plan.layer("layer0").weight @ activation
            )
        with pytest.raises(ServingError):
            server.submit(activation)  # closed
        with pytest.raises(ServingError):
            Server(plan, num_workers=0)
        with pytest.raises(ServingError):
            Server(plan, max_batch=0)

    def test_concurrent_multi_layer_serving_and_report(self):
        # Two chained layers: every model request passes through both.
        workload = synthetic_gemm_workload(num_layers=2, n=12, k=12, m=4, weight_bits=5)
        plan = compile_workload(
            workload, seed=13, graph="chain",
            accelerator=TransitiveArrayAccelerator(samples_per_gemm=2),
        )
        layers = plan.layer_names()
        rng = np.random.default_rng(17)
        activations = [
            rng.integers(-64, 64, size=(12, int(rng.integers(1, 4))), dtype=np.int64)
            for _ in range(32)
        ]
        results = {}
        errors = []

        with Server(plan, num_workers=3, max_batch=4, max_pending=64) as server:
            def client(index):
                try:
                    request = server.submit(activations[index])
                    results[index] = request.result(timeout=30.0)
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(32)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        w0, w1 = (plan.layer(name).weight for name in layers)
        for index in range(32):
            expected = w1 @ (w0 @ activations[index])
            assert np.array_equal(results[index], expected)

        # The report counts per-layer stage requests: two per model request.
        report = server.report()
        assert report.num_requests == 64
        assert report.num_model_requests == 32
        assert report.num_failed == 0
        assert report.total_columns == 2 * sum(a.shape[1] for a in activations)
        assert report.requests_per_layer == {"layer0": 32, "layer1": 32}
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
            plan.attribute(layer, activation.shape[1])
            for layer in layers
            for activation in activations
        ]
        assert report.attributed_cycles == sum(a.cycles for a in expected)
        assert report.attributed_energy.total_nj == pytest.approx(
            sum(a.energy.total_nj for a in expected)
        )
        assert report.render()  # table renders without error
        assert report.as_dict()["num_requests"] == 64

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
            first = server.submit(activation)
            deadline = time.perf_counter() + 5.0
            while len(server.queue) and time.perf_counter() < deadline:
                time.sleep(0.001)  # wait for the (gated) worker to dequeue it
            queued = server.submit(activation)  # fills the bounded queue
            with pytest.raises(BackpressureError):
                server.submit(activation)
            assert server.queue.rejected == 1
            # the rejected submission never produced a runnable request: the
            # admitted one's queued stage is still pending, untouched by the
            # rejection
            assert queued._current.state == PENDING
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
                server.submit(np.full((12, 1), 1.5))  # silent floor
            with pytest.raises(ServingError):
                server.submit(np.full((12, 1), np.nan))
            with pytest.raises(ServingError):
                server.submit(np.full((12, 1), np.inf))
            with pytest.raises(ServingError):
                server.submit(np.full((12, 1), 2.0**60))  # not exact
            with pytest.raises(ServingError):
                server.submit(np.ones((12, 1), dtype=np.complex128))
            # exactly-integral floats and narrower integer dtypes are fine
            exact_float = server.submit(np.full((12, 1), 3.0))
            narrow_int = server.submit(np.ones((12, 1), dtype=np.int8))
            weight = plan.layer("layer0").weight
            assert np.array_equal(
                exact_float.result(timeout=10.0),
                weight @ np.full((12, 1), 3, dtype=np.int64),
            )
            assert np.array_equal(
                narrow_int.result(timeout=10.0),
                weight @ np.ones((12, 1), dtype=np.int64),
            )


    def test_report_has_per_worker_stats(self):
        plan = self._plan()
        acts = _activations(plan, 8, seed=4)
        with Server(plan, num_workers=2, max_batch=4) as server:
            for act in acts:
                server.submit(act).result(timeout=60.0)
        report = server.report()
        assert len(report.shards) == 2
        assert sum(shard.batches for shard in report.shards) == report.num_batches
        assert sum(shard.requests for shard in report.shards) == 8
        assert report.compute_s_total > 0.0
        assert report.dispatch_s_total >= 0.0
        assert 0.0 < report.compute_fraction <= 1.0
        assert report.queue_wait_s_total >= 0.0
        summary = report.as_dict()
        assert len(summary["shards"]) == 2
        assert set(summary["shards"][0]) == {
            "shard", "batches", "requests", "compute_s", "dispatch_s",
            "utilization",
        }
        assert "execution" not in summary and "shm_fallbacks" not in summary


class TestSubmitMany:
    @pytest.fixture(scope="class")
    def plan(self):
        workload = synthetic_gemm_workload(num_layers=1, n=24, k=20, m=3, weight_bits=4)
        return compile_workload(workload, seed=3)

    def test_batch_admission_serves_bit_identically(self, plan):
        acts = _activations(plan, 10, seed=9)
        with Server(plan, num_workers=2, max_batch=4) as server:
            requests = server.submit_many(activations=acts)
            assert [r.request_id for r in requests] == list(range(10))
            for request, act in zip(requests, acts):
                expected = plan.layer("layer0").weight @ act
                assert np.array_equal(request.result(timeout=60.0), expected)

    def test_admission_is_all_or_nothing(self, plan):
        acts = _activations(plan, 6, seed=10)
        server = Server(plan, num_workers=1, max_pending=4)
        # Not started: the queue must stay untouched while we probe admission.
        server._started = True
        with pytest.raises(BackpressureError):
            server.submit_many(activations=acts)
        assert len(server.queue) == 0  # nothing partially admitted
        assert server.queue.rejected == 6  # every member counted
        admitted = server.submit_many(activations=acts[:4])
        assert len(server.queue) == 4
        assert len(admitted) == 4

    def test_validation_failures_admit_nothing(self, plan):
        server = Server(plan, num_workers=1)
        server._started = True
        bad = [np.ones((3, 2), dtype=np.int64)]  # wrong k
        good = _activations(plan, 1, seed=11)
        with pytest.raises(ServingError):
            server.submit_many(activations=good + bad)
        assert len(server.queue) == 0
        with pytest.raises(ServingError):
            server.submit_many(activations=[])

    def test_submit_many_pipelines_every_member_through_the_chain(self):
        plan = _chain_plan()
        acts = _activations(plan, 8, seed=21)
        with Server(plan, num_workers=2, max_batch=4) as server:
            requests = server.submit_many(activations=acts)
            for request, act in zip(requests, acts):
                assert request.pipeline_depth == 2
                assert np.array_equal(
                    request.result(timeout=60.0), _chain_reference(plan, act)
                )
        report = server.report()
        assert report.num_model_requests == 8
        assert report.requests_per_layer == {"layer0": 8, "layer1": 8}

    def test_submit_many_streams_every_member_at_its_priority(self):
        workload = synthetic_gemm_workload(num_layers=1, n=12, k=12, m=4, weight_bits=3)
        plan = compile_workload(workload, seed=5)
        weight = plan.layer("layer0").weight
        acts = _activations(plan, 4, columns=2, seed=22)
        with Server(plan, num_workers=2, max_batch=4) as server:
            requests = server.submit_many(activations=acts, stream=3, priority=1)
            for request, act in zip(requests, acts):
                assert request.priority == 1 and request.num_steps == 3
                outputs = request.outputs(timeout=60.0)
                assert len(outputs) == 3
                expected = act
                for output in outputs:
                    expected = weight @ expected
                    assert np.array_equal(output, expected)
        assert server.report().requests_per_layer == {"layer0": 12}

    def test_submit_many_validates_model_level_options(self, plan):
        acts = _activations(plan, 3, seed=23)
        with Server(plan, num_workers=1) as server:
            with pytest.raises(ServingError, match="serves model"):
                server.submit_many(activations=acts, model="some-other-model")
            with pytest.raises(ServingError, match="priority"):
                server.submit_many(activations=acts, priority=-1)
            with pytest.raises(ServingError, match="stream"):
                server.submit_many(activations=acts, stream=0)
            assert len(server.queue) == 0
            assert server.queue.rejected == 0
        assert server.report().num_requests == 0


def _chain_plan(num_layers=2, n=12, k=12, seed=13):
    workload = synthetic_gemm_workload(
        num_layers=num_layers, n=n, k=k, m=4, weight_bits=5
    )
    return compile_workload(workload, seed=seed, graph="chain")


def _chain_reference(plan, activation):
    output = activation
    for name in plan.layer_names():
        output = plan.layer(name).weight @ output
    return output


class TestThreadTier:
    """The one execution tier: supervised worker threads over the queue."""

    @pytest.fixture(scope="class")
    def plan(self):
        return _chain_plan()

    @pytest.mark.parametrize("num_workers,max_batch", [
        (1, 1), (1, 4), (2, 2), (3, 4), (4, 8),
    ])
    def test_outputs_match_the_dense_reference(self, plan, num_workers, max_batch):
        acts = _activations(plan, 12, seed=10 * num_workers + max_batch)
        with Server(
            plan, num_workers=num_workers, max_batch=max_batch, max_pending=64
        ) as server:
            requests = [server.submit(act) for act in acts]
            outputs = [request.result(timeout=60.0) for request in requests]
        for act, output in zip(acts, outputs):
            assert np.array_equal(output, _chain_reference(plan, act))
        report = server.report()
        assert report.num_model_requests == 12
        assert report.num_failed == 0
        assert 1 <= report.max_batch_size <= max_batch
        assert len(report.shards) == num_workers
        assert sum(shard.requests for shard in report.shards) == 24

    def test_health_counts_live_worker_threads(self, plan):
        with Server(plan, num_workers=3) as server:
            health = server.health()
            assert health.num_workers == health.alive_workers == 3
            assert health.healthy
            names = {thread.name for thread in threading.enumerate()}
            assert {f"serving-worker-{i}" for i in range(3)} <= names
            assert "serving-supervisor" in names
            summary = health.as_dict()
            assert summary["alive_workers"] == 3
            assert not {"execution", "alive_shards"} & set(summary)
        assert server.health().alive_workers == 0

    def test_start_is_idempotent_until_close(self, plan):
        server = Server(plan, num_workers=2)
        try:
            assert server.start() is server
            workers = [slot.thread for slot in server._slots]
            assert server.start() is server
            assert [slot.thread for slot in server._slots] == workers
            assert server.health().alive_workers == 2
        finally:
            server.close()

    def test_close_is_idempotent_and_stops_every_thread(self, plan):
        server = Server(plan, num_workers=2).start()
        threads = [slot.thread for slot in server._slots] + [server._supervisor]
        act = _activations(plan, 1, seed=31)[0]
        assert np.array_equal(
            server.submit(act).result(timeout=30.0), _chain_reference(plan, act)
        )
        server.close()
        assert not any(thread.is_alive() for thread in threads)
        server.close()  # second close: no-op
        assert server.report().num_model_requests == 1
        with pytest.raises(ServingError, match="closed"):
            server.start()

    @pytest.mark.parametrize("option", [
        {"num_workers": 0},
        {"num_workers": -1},
        {"max_batch": 0},
        {"max_pending": 0},
        {"max_worker_restarts": -1},
    ], ids=lambda option: "-".join(f"{k}={v}" for k, v in option.items()))
    def test_invalid_configuration_is_rejected(self, plan, option):
        with pytest.raises(ServingError):
            Server(plan, **option)

    def test_restart_budget_defaults_to_twice_the_workers(self, plan):
        assert Server(plan, num_workers=3).max_worker_restarts == 6
        assert Server(plan, num_workers=3, max_worker_restarts=0).max_worker_restarts == 0


class _RecordingWeights(np.ndarray):
    """A float weight copy that records the dtype and width of each product."""

    calls: list

    def __matmul__(self, other):
        self.calls.append((self.dtype.name, other.shape[1]))
        return np.asarray(self) @ other


class TestBatchComposition:
    """A request's batch picks float32 or float64 limbs; its output does not
    depend on which, and always equals the Python-int product."""

    def test_mixed_batches_equal_the_python_int_product(self):
        workload = synthetic_gemm_workload(num_layers=1, n=8, k=6, m=1, weight_bits=4)
        plan = compile_workload(workload, seed=3)
        layer = plan.layer("layer0")
        calls = []
        for field in ("weight_f32", "weight_f64"):
            copy = getattr(layer.gemm_plan, field).view(_RecordingWeights)
            copy.calls = calls
            object.__setattr__(layer.gemm_plan, field, copy)
        # The float64 one-limb top: three float32 limbs cover it, and a batch
        # of 11 or more columns takes float64 instead.
        peak = (2**53 - 1) // layer.gemm_plan.row_bound
        rng = np.random.default_rng(4)
        small = rng.integers(-8, 8, size=(6, 1), dtype=np.int64)

        def large(columns):
            x = rng.integers(-peak, peak, size=(6, columns), dtype=np.int64, endpoint=True)
            x[0, 0] = peak
            return x

        weight = layer.weight.astype(object)
        served = []
        with Server(plan, num_workers=1, max_batch=8) as server:
            for partner in (None, large(11), large(2)):
                acts = [small] if partner is None else [small, partner]
                requests = server.submit_many(acts)
                outputs = [request.result(timeout=30.0) for request in requests]
                for act, output in zip(acts, outputs):
                    assert output.dtype == np.int64
                    assert np.array_equal(output.astype(object), weight @ act.astype(object))
                served.append(outputs[0])
        assert calls == [("float32", 1), ("float64", 12), ("float32", 3 * 3)]
        assert all(np.array_equal(output, served[0]) for output in served)


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
