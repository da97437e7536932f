"""Serving accounting: the report a fixed sequence of finished requests folds
into (pinned field by field), the compute both views charge, and the
counters a live monitor sees while a chaotic run is still going."""

import sys
import threading

import numpy as np
import pytest

from repro.core.metrics import OpCounts
from repro.errors import BackpressureError, ServingError, ShedError
from repro.serving import (
    BatchExecution,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    Server,
    compile_workload,
)
from repro.serving.request import (
    CANCELLED, DONE, EXPIRED, FAILED, SHED, Request,
)
from repro.workloads import synthetic_gemm_workload

#: Base of the fixed clock; every offset below is a dyadic fraction, so all
#: sums are exact whatever order the accounting adds them in.
T0 = 100.0

REPORT_KEYS = {
    "workload", "num_requests", "num_failed", "num_rejected", "num_expired",
    "num_cancelled", "num_retried", "num_degraded", "num_worker_restarts",
    "total_columns", "wall_s", "throughput_rps", "throughput_cols_per_s",
    "latency_mean_s", "latency_p50_s", "latency_p95_s", "latency_p99_s",
    "queue_delay_mean_s", "num_batches", "mean_batch_size", "max_batch_size",
    "plan_hits", "plan_misses", "plan_hit_rate", "requests_per_layer",
    "transitive_ops", "density", "compile_stats", "num_shed",
    "num_admission_shed", "breaker_trips", "breaker_state", "num_plan_swaps",
    "num_force_aborted", "num_deadline_met", "goodput_rps",
    "goodput_by_priority", "queue_wait_s_total", "compute_s_total",
    "dispatch_s_total", "compute_fraction", "pipeline",
}
HEALTH_KEYS = {
    "healthy", "started", "closed", "num_workers", "alive_workers",
    "queue_depth", "queue_capacity", "num_rejected", "num_expired",
    "num_cancelled", "num_retried", "num_degraded", "num_worker_restarts",
    "num_shed", "num_admission_shed", "breaker_state", "num_plan_swaps",
}


def _plan():
    workload = synthetic_gemm_workload(num_layers=2, n=6, k=6, m=1, weight_bits=4)
    return compile_workload(workload, seed=3, graph="chain")


def _finished(layer, state, submitted, finished, *, started=None, cols=1,
              retries=0, degraded=False, priority=0, deadline=None):
    """A stage request already in its terminal state, on the fixed clock."""
    request = Request(
        0, layer, np.zeros((6, cols), dtype=np.int64),
        submitted_at=T0 + submitted,
        deadline_at=None if deadline is None else T0 + deadline,
        priority=priority,
    )
    request.state = state
    request.started_at = None if started is None else T0 + started
    request.finished_at = T0 + finished
    request.retries = retries
    request.degraded = degraded
    return request


def _batch(layer, size, cols, started, finished, compute_s, ops):
    return BatchExecution(
        layer=layer, batch_size=size, total_columns=cols,
        started_at=T0 + started, finished_at=T0 + finished,
        op_counts=OpCounts(4, *ops), compute_s=compute_s,
    )


def _feed_sequence():
    """(executed batch or None, finished requests) in finish order."""
    return [
        (_batch("layer0", 2, 3, 0.25, 1.5, 0.5, (10, 1, 2, 3, 4, 0, 20)), [
            _finished("layer0", DONE, 0.0, 1.0, started=0.25, deadline=2.0),
            _finished("layer0", DONE, 0.5, 1.5, started=0.75, cols=2,
                      retries=1, priority=1),
        ]),
        # Retries exhausted: one request served degraded (late), one failed.
        (None, [
            _finished("layer0", DONE, 0.25, 3.0, started=1.0, retries=2,
                      degraded=True, deadline=2.5),
            _finished("layer0", FAILED, 1.0, 2.0, started=1.0, retries=2),
        ]),
        (None, [_finished("layer0", EXPIRED, 0.125, 1.125, deadline=1.0)]),
        (_batch("layer1", 3, 6, 1.5, 4.0, 0.75, (12, 2, 3, 1, 5, 1, 30)), [
            _finished("layer1", DONE, 1.0, 2.5, started=1.5, deadline=3.0),
            _finished("layer1", DONE, 1.5, 4.0, started=2.0, cols=3,
                      priority=1, deadline=3.5),
            _finished("layer1", DONE, 1.5, 2.5, started=1.5, cols=2,
                      priority=1, deadline=4.0),
        ]),
        (None, [
            _finished("layer1", CANCELLED, 2.0, 2.25),
            _finished("layer1", SHED, 2.5, 2.75, priority=1),
        ]),
        (_batch("layer0", 1, 4, 2.5, 3.5, 0.25, (8, 0, 1, 1, 2, 0, 9)), [
            _finished("layer0", DONE, 2.0, 3.5, started=2.5, cols=4),
        ]),
    ]


class TestPinnedReport:
    def test_every_report_field_from_a_fixed_finish_sequence(self):
        plan = _plan()
        server = Server(plan, num_workers=1)
        for execution, requests in _feed_sequence():
            server._ledger.fold(requests, execution)
        report = server.report()

        assert report.workload == plan.name
        assert (report.num_requests, report.num_failed, report.num_expired,
                report.num_cancelled, report.num_shed) == (7, 1, 1, 1, 1)
        assert (report.num_rejected, report.num_admission_shed,
                report.num_force_aborted, report.num_worker_restarts) == (0, 0, 0, 0)
        assert report.num_retried == 5
        assert report.num_degraded == 1
        assert report.total_columns == 14
        assert report.wall_s == 4.0
        assert report.throughput_rps == 7 / 4.0
        assert report.throughput_cols_per_s == 14 / 4.0
        # Done latencies: 1, 1, 2.75, 1.5, 2.5, 1, 1.5 (exact, unbucketed).
        assert report.latency_mean_s == 11.25 / 7
        assert report.latency_p50_s == 1.5
        assert report.latency_p95_s == pytest.approx(2.675, rel=1e-12)
        assert report.latency_p99_s == pytest.approx(2.735, rel=1e-12)
        assert report.queue_delay_mean_s == 2.75 / 7
        assert report.queue_wait_s_total == 2.75
        assert (report.num_batches, report.mean_batch_size,
                report.max_batch_size) == (3, 2.0, 3)
        assert (report.plan_hits, report.plan_misses) == (3, 2)
        assert report.plan_hit_rate == 3 / 5
        assert report.requests_per_layer == {"layer0": 4, "layer1": 3}
        assert report.op_counts == OpCounts(4, 30, 3, 6, 5, 11, 1, 59)
        assert report.compile_stats is plan.compile_stats
        assert report.attributed_cycles is None
        assert report.attributed_energy is None
        assert report.breaker_trips == 0
        assert report.breaker_state == "closed"
        assert report.num_plan_swaps == 0
        # Deadline met: three priority-0 and two priority-1 completions.
        assert report.num_deadline_met == 5
        assert report.goodput_rps == 5 / 4.0
        assert report.goodput_by_priority == {0: 3 / 4.0, 1: 2 / 4.0}
        # Never started: no worker ran a batch.
        assert report.shards == ()
        assert (report.compute_s_total, report.dispatch_s_total,
                report.compute_fraction) == (0.0, 0.0, 0.0)

        assert report.pipeline_depth == 2
        stage0, stage1 = report.stages
        assert (stage0.stage, stage0.layer, stage0.requests, stage0.batches) == (
            0, "layer0", 4, 2)
        assert stage0.compute_s == 0.75
        assert stage0.queue_wait_mean_s == 1.75 / 4
        assert stage0.latency_mean_s == 6.25 / 4
        assert stage0.latency_p95_s == pytest.approx(2.5625, rel=1e-12)
        assert stage0.occupancy == 0.75 / 4.0
        assert (stage1.stage, stage1.layer, stage1.requests, stage1.batches) == (
            1, "layer1", 3, 1)
        assert stage1.compute_s == 0.75
        assert stage1.queue_wait_mean_s == 1.0 / 3
        assert stage1.latency_mean_s == 5.0 / 3
        assert stage1.latency_p95_s == pytest.approx(2.4, rel=1e-12)
        assert stage1.occupancy == 0.75 / 4.0
        assert (report.num_model_requests, report.num_model_failed) == (0, 0)
        assert (report.model_latency_mean_s, report.model_latency_p50_s,
                report.model_latency_p95_s, report.model_latency_p99_s) == (
            0.0, 0.0, 0.0, 0.0)

        assert set(report.as_dict()) == REPORT_KEYS
        assert set(server.health().as_dict()) == HEALTH_KEYS


def _activations(count, seed):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-8, 8, size=(6, int(rng.integers(1, 3))), dtype=np.int64)
        for _ in range(count)
    ]


class TestComputeDefinition:
    def test_worker_and_stage_compute_sums_agree(self):
        """Workers and stages both charge the pure engine pass, so the two
        breakdowns of one run's compute add up to the same seconds."""
        with Server(_plan(), num_workers=2, max_batch=4) as server:
            handles = server.submit_many(_activations(48, seed=5))
            for handle in handles:
                handle.result(timeout=30.0)
        report = server.report()
        stage_compute = sum(stage.compute_s for stage in report.stages)
        assert stage_compute > 0.0
        assert report.compute_s_total == pytest.approx(stage_compute, rel=1e-9)
        assert sum(shard.batches for shard in report.shards) == report.num_batches
        assert sum(stage.batches for stage in report.stages) == report.num_batches


#: Report counters that can only grow while a server runs.
_REPORT_COUNTERS = (
    "num_requests", "num_failed", "num_rejected", "num_expired",
    "num_cancelled", "num_retried", "num_degraded", "num_worker_restarts",
    "total_columns", "num_batches", "plan_hits", "plan_misses", "num_shed",
    "num_admission_shed", "breaker_trips", "num_plan_swaps",
    "num_force_aborted", "num_deadline_met", "num_model_requests",
    "num_model_failed", "queue_wait_s_total", "compute_s_total",
    "dispatch_s_total",
)
#: Counters health() and report() both carry.
_SHARED = (
    "num_rejected", "num_expired", "num_cancelled", "num_retried",
    "num_degraded", "num_worker_restarts", "num_shed", "num_admission_shed",
    "breaker_state", "num_plan_swaps",
)


def _report_counters(report):
    counters = {name: getattr(report, name) for name in _REPORT_COUNTERS}
    for stage in report.stages:
        counters[f"stage{stage.stage}.requests"] = stage.requests
        counters[f"stage{stage.stage}.batches"] = stage.batches
        counters[f"stage{stage.stage}.compute_s"] = stage.compute_s
    for shard in report.shards:
        counters[f"shard{shard.shard}.batches"] = shard.batches
        counters[f"shard{shard.shard}.requests"] = shard.requests
    return counters


def _health_counters(health):
    return {name: getattr(health, name) for name in _SHARED if name != "breaker_state"}


def _finished_stage_requests(report):
    return (report.num_requests + report.num_failed + report.num_expired
            + report.num_cancelled + report.num_shed)


class TestLiveSnapshots:
    def test_counters_grow_and_conserve_during_a_chaos_run(self):
        faults = FaultInjector(
            engine_fault_rate=0.15, latency_rate=0.2, latency_s=0.002,
            plan=FaultPlan(worker_crashes_at=frozenset({7})), seed=11,
        )
        server = Server(
            _plan(), num_workers=2, max_batch=4, max_pending=64,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                                     backoff_max_s=0.0),
            faults=faults,
        )
        polls = []
        violations = []
        stop = threading.Event()

        def monitor():
            while True:
                report = server.report()
                health = server.health()
                # Every stage request that finished got an id, and every
                # admission shed or backpressure rejection had one too.
                admitted = (server._next_id - health.num_admission_shed
                            - health.num_rejected)
                if _finished_stage_requests(report) > admitted:
                    violations.append((_finished_stage_requests(report), admitted))
                polls.append((_report_counters(report), _health_counters(health)))
                if stop.is_set():
                    return
                stop.wait(0.001)

        watcher = threading.Thread(target=monitor)
        rng = np.random.default_rng(17)
        with server:
            watcher.start()
            handles = []
            for index, activation in enumerate(_activations(160, seed=3)):
                deadline_s = 0.002 if index % 7 == 0 else None
                try:
                    handle = server.submit(
                        activation, deadline_s=deadline_s,
                        priority=int(rng.integers(0, 2)),
                    )
                except (BackpressureError, ShedError):
                    continue
                handles.append(handle)
                if index % 11 == 0:
                    handle.cancel()
            for handle in handles:
                try:
                    handle.result(timeout=30.0)
                except ServingError:  # expired, cancelled, shed or failed
                    pass
        stop.set()
        watcher.join(timeout=30.0)
        assert not watcher.is_alive()

        assert not violations
        assert len(polls) >= 2
        for before, after in zip(polls, polls[1:]):
            for view in (0, 1):
                shrunk = {
                    name: (before[view][name], value)
                    for name, value in after[view].items()
                    if value < before[view].get(name, 0)
                }
                assert not shrunk
        report, health = server.report(), server.health()
        # The run exercised what it claims to: faults, deadlines, cancels.
        assert report.num_requests > 0
        assert report.num_retried + report.num_degraded > 0
        assert report.num_expired + report.num_shed > 0
        assert report.num_cancelled > 0
        assert report.num_worker_restarts == 1
        for name in _SHARED:
            assert getattr(health, name) == getattr(report, name), name


class TestConcurrentFolds:
    def test_no_update_is_lost_under_contention(self):
        """More workers than cores and a short switch interval: every stage
        request, batch and model request is folded in exactly once."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Server(_plan(), num_workers=4, max_batch=2,
                        max_pending=256) as server:
                handles = server.submit_many(_activations(120, seed=9))
                for handle in handles:
                    handle.result(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        report = server.report()
        assert report.num_requests == 240
        assert report.requests_per_layer == {"layer0": 120, "layer1": 120}
        assert report.num_model_requests == 120
        assert [stage.requests for stage in report.stages] == [120, 120]
        assert sum(shard.requests for shard in report.shards) == 240
        assert sum(shard.batches for shard in report.shards) == report.num_batches
        assert sum(stage.batches for stage in report.stages) == report.num_batches
        assert report.total_columns == 2 * sum(
            activation.shape[1] for activation in _activations(120, seed=9))
