"""RequestQueue admission control / coalescing and MicroBatcher semantics."""

import time

import numpy as np
import pytest

from repro.errors import BackpressureError, InjectedFaultError, ServingError
from repro.serving import (
    FaultInjector,
    FaultPlan,
    MicroBatcher,
    RequestQueue,
    Server,
    compile_workload,
)
from repro.serving.request import DONE, FAILED, RUNNING, Request
from repro.workloads import synthetic_gemm_workload


def _request(request_id, layer, k=6, cols=2):
    activation = np.arange(k * cols, dtype=np.int64).reshape(k, cols)
    return Request(request_id, layer, activation, submitted_at=time.perf_counter())


class TestRequestQueue:
    def test_backpressure_at_capacity(self):
        queue = RequestQueue(max_pending=2)
        queue.put(_request(0, "a"))
        queue.put(_request(1, "a"))
        with pytest.raises(BackpressureError):
            queue.put(_request(2, "a"))
        assert queue.rejected == 1
        assert len(queue) == 2

    def test_next_batch_coalesces_same_layer_and_preserves_fifo(self):
        queue = RequestQueue(max_pending=16)
        for request_id, layer in enumerate(["a", "b", "a", "a", "b", "a"]):
            queue.put(_request(request_id, layer))
        batch = queue.next_batch(max_batch=3)
        # head is request 0 ("a"); the next two "a"s coalesce around the "b"s
        assert [request.request_id for request in batch] == [0, 2, 3]
        # the skipped "b"s (and the leftover "a") keep their relative order
        batch = queue.next_batch(max_batch=3)
        assert [request.request_id for request in batch] == [1, 4]
        batch = queue.next_batch(max_batch=3)
        assert [request.request_id for request in batch] == [5]

    def test_next_batch_times_out_and_close_wakes(self):
        queue = RequestQueue(max_pending=4)
        start = time.perf_counter()
        assert queue.next_batch(max_batch=2, timeout=0.01) is None
        assert time.perf_counter() - start < 1.0
        queue.close()
        assert queue.next_batch(max_batch=2, timeout=10.0) is None
        with pytest.raises(ServingError):
            queue.put(_request(9, "a"))

    def test_invalid_parameters(self):
        with pytest.raises(ServingError):
            RequestQueue(max_pending=0)
        queue = RequestQueue(max_pending=1)
        with pytest.raises(ServingError):
            queue.next_batch(max_batch=0)


def _claimed(requests):
    """Claim requests the way a worker does before ``execute_once``."""
    now = time.perf_counter()
    for request in requests:
        assert request.try_claim(now, len(requests))
    return requests


class TestMicroBatcher:
    def _plan(self):
        workload = synthetic_gemm_workload(num_layers=2, n=8, k=6, m=4, weight_bits=4)
        return compile_workload(workload, seed=3)

    def test_batch_outputs_match_per_request_matmul(self):
        plan = self._plan()
        batcher = MicroBatcher(plan)
        requests = _claimed([_request(i, "layer0", cols=i + 1) for i in range(3)])
        execution = batcher.execute_once(requests)
        assert execution.batch_size == 3
        assert execution.total_columns == 6
        assert 0.0 < execution.compute_s <= (
            execution.finished_at - execution.started_at
        )
        weight = plan.layer("layer0").weight
        for request in requests:
            assert request.state == DONE
            assert request.batch_size == 3
            assert np.array_equal(request.result(), weight @ request.activation)

    def test_mixed_layer_batch_rejected_and_empty_batch(self):
        plan = self._plan()
        batcher = MicroBatcher(plan)
        mixed = _claimed([_request(0, "layer0"), _request(1, "layer1")])
        with pytest.raises(ServingError, match="mixes layers"):
            batcher.execute_once(mixed)
        assert all(request.state == RUNNING for request in mixed)
        with pytest.raises(ServingError, match="empty"):
            batcher.execute_once([])

    def test_engine_error_leaves_requests_untouched(self):
        plan = self._plan()
        batcher = MicroBatcher(plan)
        # wrong activation row count -> the engine pass fails; the error
        # propagates and the caller decides the requests' fate
        bad = _claimed([_request(0, "layer0", k=5), _request(1, "layer0", k=5)])
        with pytest.raises(Exception):
            batcher.execute_once(bad)
        for request in bad:
            assert request.state == RUNNING
            assert not request.done()
            assert request.attribution is None


class TestBatchFailureWithoutRecovery:
    def test_engine_error_fails_every_request(self):
        workload = synthetic_gemm_workload(num_layers=1, n=8, k=6, m=1, weight_bits=4)
        plan = compile_workload(workload, seed=3)
        faults = FaultInjector(plan=FaultPlan(engine_faults_at=frozenset({1})))
        server = Server(
            plan, num_workers=1, max_batch=4, retry_policy=None,
            degraded_fallback=False, faults=faults,
        )
        activations = [np.ones((6, 1), dtype=np.int64) for _ in range(3)]
        with server:
            handles = server.submit_many(activations)
            for handle in handles:
                with pytest.raises(InjectedFaultError):
                    handle.result(timeout=10.0)
        report = server.report()
        assert (report.num_failed, report.num_requests, report.num_batches) == (
            3, 0, 0)
        assert report.num_retried == 0 and report.num_degraded == 0
        assert [handle.state for handle in handles] == [FAILED] * 3
