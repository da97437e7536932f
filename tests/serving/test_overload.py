"""Overload resilience: QoS lanes, load shedding, breaker, swap, force-abort.

The acceptance criteria mirror ISSUE 10: under offered load beyond capacity
the server must keep serving interactive (priority-0) traffic at high goodput
by browning out bulk lanes and shedding deadline-doomed work; sustained
fast-path failure must trip the degraded-oracle circuit breaker to fast
shedding instead of the ~35x slower oracle death spiral; ``swap_plan`` must
install new weights with zero dropped requests; and the accounting must
conserve — every admitted request reaches exactly one terminal state and is
counted exactly once, in both execution tiers, under faults and overload.
"""

import os
import multiprocessing
import random
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    RequestCancelledError,
    ServingError,
    ShedError,
)
from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionController,
    ArrivalSchedule,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    ModelGraph,
    RequestQueue,
    Server,
    cleanup_orphan_segments,
    compile_workload,
)
from repro.serving.policy import RetryPolicy
from repro.serving.request import DONE, EXPIRED, SHED, Request
from repro.workloads import synthetic_gemm_workload

LAYER = "layer0"

#: Retries without sleeps so fault-heavy paths stay fast.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base_s=0.0, backoff_max_s=0.0)


def _plan(seed=23, num_layers=1, k=10, **kwargs):
    workload = synthetic_gemm_workload(
        num_layers=num_layers, n=12, k=k, m=4, weight_bits=4
    )
    return compile_workload(workload, seed=seed, **kwargs)


def _acts(count, k=10, cols=1, seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-32, 32, size=(k, cols), dtype=np.int64)
        for _ in range(count)
    ]


def _request(request_id, layer=LAYER, deadline_at_=None, priority=0, k=10):
    activation = np.arange(k, dtype=np.int64).reshape(k, 1)
    return Request(
        request_id,
        layer,
        activation,
        submitted_at=time.perf_counter(),
        deadline_at=deadline_at_,
        priority=priority,
    )


class _Gate:
    """Blocks the server's batch execution until released."""

    def __init__(self, server):
        self.event = threading.Event()
        self._original = server.batcher.execute_once
        server.batcher.execute_once = self._gated

    def _gated(self, requests):
        assert self.event.wait(10.0)
        return self._original(requests)

    def release(self):
        self.event.set()


def _wait_queue_empty(server, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while len(server.queue) and time.perf_counter() < deadline:
        time.sleep(0.001)
    assert len(server.queue) == 0


def _noop():
    pass


class TestPriorityLanes:
    def test_higher_priority_lane_served_first(self):
        queue = RequestQueue(max_pending=8)
        bulk = _request(1, priority=2)
        mid = _request(2, priority=1)
        interactive = _request(3, priority=0)
        for request in (bulk, mid, interactive):
            queue.put(request)
        assert [queue.next_batch(1)[0] for _ in range(3)] == [
            interactive, mid, bulk
        ]

    def test_edf_within_lane(self):
        queue = RequestQueue(max_pending=8)
        now = time.perf_counter()
        late = _request(1, deadline_at_=now + 100.0)
        early = _request(2, deadline_at_=now + 50.0)
        none = _request(3)  # no deadline sorts after any deadline
        queue.put(late)
        queue.put(none)
        queue.put(early)
        assert [queue.next_batch(1)[0] for _ in range(3)] == [early, late, none]

    def test_fifo_among_deadline_less_requests(self):
        queue = RequestQueue(max_pending=8)
        requests = [_request(index) for index in range(3)]
        for request in requests:
            queue.put(request)
        assert [queue.next_batch(1)[0] for _ in range(3)] == requests

    def test_bulk_rides_interactive_batch_not_vice_versa(self):
        queue = RequestQueue(max_pending=8)
        head = _request(1, layer="layer0", priority=0)
        bulk_same = _request(2, layer="layer0", priority=1)
        bulk_other = _request(3, layer="layer1", priority=1)
        queue.put(bulk_same)
        queue.put(bulk_other)
        queue.put(head)
        batch = queue.next_batch(3)
        # The interactive head leads; same-layer bulk rides along; the
        # other-layer bulk request keeps its lane position.
        assert batch == [head, bulk_same]
        assert queue.depths() == {1: 1}
        assert queue.next_batch(3) == [bulk_other]

    def test_interactive_head_wins_even_against_full_bulk_lane(self):
        queue = RequestQueue(max_pending=8)
        bulk = [_request(index, layer="layer0", priority=1) for index in range(2)]
        interactive = _request(9, layer="layer1", priority=0)
        for request in bulk:
            queue.put(request)
        queue.put(interactive)
        # Head selection is by priority, not by biggest coalescible batch.
        assert queue.next_batch(4) == [interactive]
        assert queue.next_batch(4) == bulk

    def test_requeue_restores_original_position(self):
        queue = RequestQueue(max_pending=8)
        first = _request(1)
        second = _request(2)
        queue.put(first)
        queue.put(second)
        assert queue.next_batch(1) == [first]
        queue.requeue([first])  # crash recovery keeps the admission sequence
        assert queue.next_batch(1) == [first]
        assert queue.next_batch(1) == [second]

    def test_depths_reports_per_lane_occupancy(self):
        queue = RequestQueue(max_pending=8)
        queue.put(_request(1, priority=0))
        queue.put(_request(2, priority=2))
        queue.put(_request(3, priority=2))
        assert queue.depths() == {0: 1, 2: 2}
        assert len(queue) == 3

    def test_doomed_request_shed_at_claim_time(self):
        class _AlwaysDoom:
            def claim_check(self, request, now):
                return ShedError("doomed", retry_after_s=0.01)

        queue = RequestQueue(max_pending=8)
        queue.controller = _AlwaysDoom()
        doomed = _request(1, deadline_at_=time.perf_counter() + 100.0)
        queue.put(doomed)
        assert queue.next_batch(1, timeout=0.01) is None
        assert doomed.state == SHED
        assert queue.shed_doomed == 1
        assert queue.take_shed() == [doomed]
        with pytest.raises(ShedError):
            doomed.result(timeout=0.1)

    def test_deadline_less_request_never_consults_controller(self):
        class _Exploding:
            def claim_check(self, request, now):  # pragma: no cover
                raise AssertionError("must not be consulted without a deadline")

        queue = RequestQueue(max_pending=8)
        queue.controller = _Exploding()
        request = _request(1)
        queue.put(request)
        assert queue.next_batch(1) == [request]


class TestAdmissionController:
    def test_brownout_watermark_schedule(self):
        controller = AdmissionController()
        assert controller.brownout_watermark(0) == 1.0
        assert controller.brownout_watermark(1) == pytest.approx(0.75)
        assert controller.brownout_watermark(2) == pytest.approx(0.50)
        assert controller.brownout_watermark(3) == pytest.approx(0.25)
        assert controller.brownout_watermark(10) == pytest.approx(0.25)  # floor

    def test_parameter_validation(self):
        for kwargs in (
            dict(alpha=0.0), dict(alpha=1.5), dict(min_samples=0),
            dict(headroom=0.0), dict(brownout_step=1.5),
            dict(brownout_floor=0.0),
        ):
            with pytest.raises(ServingError):
                AdmissionController(**kwargs)

    def test_bulk_sheds_at_watermark_interactive_does_not(self):
        controller = AdmissionController()
        now = time.perf_counter()
        # p1 watermark is 75%: depth 75/100 sheds, 74 does not.
        error = controller.admission_check(LAYER, None, 1, now, 75, 100)
        assert isinstance(error, ShedError)
        assert error.retry_after_s > 0.0
        assert controller.admission_check(LAYER, None, 1, now, 74, 100) is None
        # Priority 0 is only ever limited by the hard admission bound.
        assert controller.admission_check(LAYER, None, 0, now, 100, 100) is None

    def test_ewma_estimates(self):
        controller = AdmissionController(min_samples=3)
        assert controller.estimate_s(LAYER) is None
        for _ in range(2):
            controller.observe_batch(LAYER, 2, 0.2)  # 0.1 s per request
        assert controller.estimate_s(LAYER) is None  # below min_samples
        controller.observe_batch(LAYER, 2, 0.2)
        assert controller.estimate_s(LAYER) == pytest.approx(0.1)
        assert controller.estimate_s("other") is None
        controller.observe_wait(1.0)
        assert controller.wait_ewma_s == pytest.approx(0.2)  # alpha = 0.2

    def test_doomed_at_admission_only_once_warm(self):
        cold = AdmissionController(min_samples=3)
        now = time.perf_counter()
        # A cold controller never dooms: behaves like no controller at all.
        assert cold.admission_check(LAYER, now + 0.001, 0, now, 0, 100) is None
        warm = AdmissionController(min_samples=1)
        warm.observe_batch(LAYER, 1, 0.1)
        error = warm.admission_check(LAYER, now + 0.01, 0, now, 0, 100)
        assert isinstance(error, ShedError)
        assert error.retry_after_s >= 0.1
        assert warm.admission_check(LAYER, now + 1.0, 0, now, 0, 100) is None

    def test_claim_check_uses_remaining_budget_only(self):
        controller = AdmissionController(min_samples=1)
        controller.observe_batch(LAYER, 1, 0.1)
        now = time.perf_counter()
        doomed = _request(1, deadline_at_=now + 0.01)
        assert isinstance(controller.claim_check(doomed, now), ShedError)
        roomy = _request(2, deadline_at_=now + 1.0)
        assert controller.claim_check(roomy, now) is None
        no_deadline = _request(3)
        assert controller.claim_check(no_deadline, now) is None


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.t = [0.0]
        kwargs.setdefault("clock", lambda: self.t[0])
        return CircuitBreaker(**kwargs)

    def test_parameter_validation(self):
        for kwargs in (
            dict(failure_threshold=0), dict(failure_rate=0.0),
            dict(failure_rate=1.5), dict(min_samples=0),
            dict(window_s=0.0), dict(cooldown_s=-1.0),
        ):
            with pytest.raises(ServingError):
                CircuitBreaker(**kwargs)

    def test_consecutive_failures_trip_open(self):
        breaker = self._breaker(failure_threshold=3, cooldown_s=1.0)
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(1.0)
        self.t[0] = 0.6
        assert breaker.retry_after_s() == pytest.approx(0.4)

    def test_half_open_probe_failure_reopens(self):
        breaker = self._breaker(failure_threshold=1, cooldown_s=1.0)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        self.t[0] = 1.0  # cooldown elapsed: first allow() is the probe
        assert breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # only one probe in flight
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2
        assert not breaker.allow()  # a fresh cooldown started

    def test_success_closes_from_any_state(self):
        breaker = self._breaker(failure_threshold=1, cooldown_s=1.0)
        breaker.record_failure()
        self.t[0] = 1.0
        assert breaker.allow()  # half-open probe
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert breaker.trips == 1
        assert breaker.retry_after_s() == 0.0

    def test_windowed_failure_rate_trips_without_consecutive_run(self):
        breaker = self._breaker(
            failure_threshold=100, failure_rate=0.5, min_samples=4, window_s=10.0
        )
        # Alternating outcomes never build a consecutive run, but the rate
        # criterion sees 2 failures / 4 samples = 50%.
        breaker.record_success()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1

    def test_stale_outcomes_age_out_of_the_window(self):
        breaker = self._breaker(
            failure_threshold=100, failure_rate=0.5, min_samples=3, window_s=1.0
        )
        for instant in (0.0, 2.0, 4.0):
            self.t[0] = instant
            breaker.record_failure()  # each arrives alone in its window
        assert breaker.state == BREAKER_CLOSED

    def test_success_resets_the_consecutive_counter(self):
        breaker = self._breaker(failure_threshold=3, min_samples=100)
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED


class TestRetryPolicySeeding:
    def test_same_seed_same_backoff_schedule(self):
        first = RetryPolicy(seed=7)
        second = RetryPolicy(seed=7)
        schedule = [first.backoff_s(attempt) for attempt in (1, 2, 1, 2, 1)]
        assert schedule == [second.backoff_s(a) for a in (1, 2, 1, 2, 1)]

    def test_different_seeds_diverge(self):
        first = RetryPolicy(seed=7)
        second = RetryPolicy(seed=8)
        assert [first.backoff_s(1) for _ in range(4)] != [
            second.backoff_s(1) for _ in range(4)
        ]

    def test_explicit_rng_overrides_the_policy_stream(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_s(2, rng=random.Random(3)) == pytest.approx(
            RetryPolicy(seed=99).backoff_s(2, rng=random.Random(3))
        )

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(
            backoff_base_s=0.01, backoff_multiplier=2.0,
            backoff_max_s=0.05, jitter=0.0,
        )
        assert [policy.backoff_s(a) for a in (1, 2, 3, 4)] == pytest.approx(
            [0.01, 0.02, 0.04, 0.05]
        )


class TestArrivalSchedule:
    def test_uniform(self):
        schedule = ArrivalSchedule.uniform(rate_rps=10.0, count=5)
        assert schedule.offsets_s == pytest.approx((0.0, 0.1, 0.2, 0.3, 0.4))
        assert schedule.offered_rps == pytest.approx(12.5)  # 5 over 0.4 s
        assert len(schedule) == 5

    def test_poisson_is_seeded_and_sorted(self):
        first = ArrivalSchedule.poisson(rate_rps=100.0, count=20, seed=4)
        again = ArrivalSchedule.poisson(rate_rps=100.0, count=20, seed=4)
        other = ArrivalSchedule.poisson(rate_rps=100.0, count=20, seed=5)
        assert first.offsets_s == again.offsets_s
        assert first.offsets_s != other.offsets_s
        assert first.offsets_s[0] == 0.0
        assert all(b >= a for a, b in zip(first, list(first)[1:]))

    def test_burst(self):
        schedule = ArrivalSchedule.burst(num_bursts=3, burst_size=2, gap_s=0.5)
        assert schedule.offsets_s == (0.0, 0.0, 0.5, 0.5, 1.0, 1.0)
        assert schedule.duration_s == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ServingError):
            ArrivalSchedule((0.0, -1.0))
        with pytest.raises(ServingError):
            ArrivalSchedule((1.0, 0.5))
        with pytest.raises(ServingError):
            ArrivalSchedule.uniform(rate_rps=0.0, count=1)
        with pytest.raises(ServingError):
            ArrivalSchedule.poisson(rate_rps=5.0, count=0)
        with pytest.raises(ServingError):
            ArrivalSchedule.burst(num_bursts=0, burst_size=1, gap_s=0.1)


class TestServerOverload:
    def test_brownout_sheds_bulk_admission_keeps_interactive(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=8)
        gate = _Gate(server)
        act = _acts(1)[0]
        try:
            server.start()
            plug = server.submit(act, priority=0)
            _wait_queue_empty(server)  # the gated worker holds the plug
            bulk = [server.submit(act, priority=1) for _ in range(6)]
            # Depth 6/8 is past the p1 watermark (75%): bulk sheds...
            with pytest.raises(ShedError) as shed_info:
                server.submit(act, priority=1)
            assert shed_info.value.retry_after_s > 0.0
            # ...while interactive traffic is still admitted.
            interactive = server.submit(act, priority=0)
            gate.release()
            expected = plan.layer(LAYER).weight @ act
            for handle in [plug, interactive] + bulk:
                assert np.array_equal(handle.result(timeout=30.0), expected)
        finally:
            gate.release()
            server.close()
        report = server.report()
        assert server.health().num_admission_shed == 1
        assert report.num_admission_shed == 1
        assert report.num_requests == 8
        assert report.num_shed == 0  # everything admitted completed

    def test_shed_submit_builds_no_request(self, monkeypatch):
        class ShedEverything(AdmissionController):
            def admission_check(self, layer, deadline_at_, priority, now,
                                depth, capacity):
                seen.append((layer, deadline_at_ - now))
                return ShedError("shed for the test", retry_after_s=0.01)

        def build(*args, **kwargs):
            raise AssertionError("a shed submit built its request")

        seen = []
        server = Server(_plan(), num_workers=1, admission_control=ShedEverything())
        monkeypatch.setattr(server, "_build_model_request", build)
        act = _acts(1)[0]
        with server:
            with pytest.raises(ShedError):
                server.submit(act, deadline_s=5.0)
            with pytest.raises(ShedError):
                server.submit_many(activations=[act, act], deadline_s=5.0)
        assert [layer for layer, _ in seen] == [LAYER, LAYER]
        assert all(4.0 < budget <= 5.0 for _, budget in seen)
        assert server.health().num_admission_shed == 3

    def test_interactive_overtakes_queued_bulk(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=16)
        gate = _Gate(server)
        act = _acts(1)[0]
        try:
            server.start()
            plug = server.submit(act, priority=0)
            _wait_queue_empty(server)
            bulk = [server.submit(act, priority=2) for _ in range(4)]
            interactive = [server.submit(act, priority=0) for _ in range(2)]
            gate.release()
            for handle in [plug] + bulk + interactive:
                handle.result(timeout=30.0)
        finally:
            gate.release()
            server.close()
        # The single worker drained the p0 lane before touching bulk, even
        # though every bulk request was submitted first.
        assert max(h.finished_at for h in interactive) <= min(
            h.finished_at for h in bulk
        )
        report = server.report()
        assert report.goodput_rps > 0.0
        assert set(report.goodput_by_priority) == {0, 2}
        assert "goodput" in report.render()

    def test_claim_time_doom_sheds_through_the_server(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=8,
                        admission_control=False)
        # Attach a pre-warmed controller to the queue only, so the shed can
        # happen nowhere but at batch-claim time.
        controller = AdmissionController(min_samples=1)
        controller.observe_batch(LAYER, 1, 10.0)  # "10 s per request"
        server.queue.controller = controller
        act = _acts(1)[0]
        with server:
            handle = server.submit(act, deadline_s=0.5)
            with pytest.raises(ShedError) as shed_info:
                handle.result(timeout=10.0)
        assert shed_info.value.retry_after_s >= 10.0
        report = server.report()
        assert report.num_shed == 1
        assert report.num_admission_shed == 0
        assert server.health().num_shed == 1

    def test_breaker_trips_to_fast_shedding(self):
        plan = _plan()
        faults = FaultInjector(engine_fault_rate=1.0, seed=3)
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        server = Server(
            plan, num_workers=1, max_batch=1, max_pending=16,
            retry_policy=FAST_RETRIES, faults=faults, degraded_breaker=breaker,
        )
        acts = _acts(6)
        with server:
            handles = [server.submit(act) for act in acts]
            outcomes = []
            for handle in handles:
                try:
                    outcomes.append(handle.result(timeout=30.0))
                except ShedError as error:
                    assert error.retry_after_s > 0.0
                    outcomes.append(error)
        # Batch 1 exhausted retries and fell back to the exact oracle; batch
        # 2's failure tripped the breaker; everything after shed fast instead
        # of compounding the overload through the slow oracle.
        assert np.array_equal(outcomes[0], plan.layer(LAYER).weight @ acts[0])
        assert all(isinstance(outcome, ShedError) for outcome in outcomes[1:])
        report = server.report()
        assert report.num_degraded == 1
        assert report.num_shed == 5
        assert report.breaker_trips == 1
        assert report.breaker_state == BREAKER_OPEN
        assert server.health().breaker_state == BREAKER_OPEN
        rendered = report.render()
        assert "degraded-path breaker" in rendered
        assert "requests shed (overload)" in rendered

    def test_breaker_probe_recovers_after_fast_path_heals(self):
        plan = _plan()
        # Scripted faults: the first batch's three attempts all fail, then
        # the fast path is healthy again.
        faults = FaultInjector(plan=FaultPlan(engine_faults_at={1, 2, 3}))
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.0)
        server = Server(
            plan, num_workers=1, max_batch=1, max_pending=8,
            retry_policy=FAST_RETRIES, faults=faults, degraded_breaker=breaker,
        )
        acts = _acts(2)
        with server:
            first = server.submit(acts[0])
            expected = plan.layer(LAYER).weight @ acts[0]
            assert np.array_equal(first.result(timeout=30.0), expected)
            second = server.submit(acts[1])
            assert np.array_equal(
                second.result(timeout=30.0), plan.layer(LAYER).weight @ acts[1]
            )
        report = server.report()
        # Trip -> cooldown elapsed -> half-open probe served degraded ->
        # the next fast-path success closed the breaker.
        assert report.breaker_trips == 1
        assert report.breaker_state == BREAKER_CLOSED
        assert report.num_degraded == 1
        assert report.num_shed == 0

    def test_breaker_disabled_always_degrades(self):
        plan = _plan()
        faults = FaultInjector(engine_fault_rate=1.0, seed=3)
        server = Server(
            plan, num_workers=1, max_batch=1, max_pending=8,
            retry_policy=FAST_RETRIES, faults=faults, degraded_breaker=False,
        )
        acts = _acts(4)
        with server:
            handles = [server.submit(act) for act in acts]
            for act, handle in zip(acts, handles):
                assert np.array_equal(
                    handle.result(timeout=30.0), plan.layer(LAYER).weight @ act
                )
        report = server.report()
        assert report.num_degraded == 4
        assert report.num_shed == 0
        assert report.breaker_state == "disabled"


class TestAccountingConservation:
    @pytest.mark.parametrize("execution,count,timeout", [
        ("threads", 36, 60.0),
        ("processes", 16, 120.0),
    ])
    def test_every_admitted_request_is_counted_exactly_once(
        self, execution, count, timeout
    ):
        plan = _plan()
        faults = FaultInjector(engine_fault_rate=0.15, seed=11)
        server = Server(
            plan, num_workers=2, max_batch=4, max_pending=12,
            retry_policy=FAST_RETRIES, faults=faults, execution=execution,
        )
        acts = _acts(count, seed=29)
        handles = []
        submit_sheds = 0
        submit_rejected = 0
        with server:
            for index, act in enumerate(acts):
                deadline_s = (
                    None if index % 3 == 0
                    else 5.0 if index % 3 == 1
                    else 0.003  # born nearly dead: expires or sheds
                )
                try:
                    handle = server.submit(
                        act, deadline_s=deadline_s, priority=index % 3
                    )
                except ShedError:
                    submit_sheds += 1
                    continue
                except BackpressureError:
                    submit_rejected += 1
                    continue
                if index % 7 == 3:
                    handle.cancel()  # may lose the race: result() decides
                handles.append(handle)
            outcomes = {"done": 0, "expired": 0, "shed": 0,
                        "cancelled": 0, "failed": 0}
            for handle in handles:
                try:
                    handle.result(timeout=timeout)
                    outcomes["done"] += 1
                except DeadlineExceededError:
                    outcomes["expired"] += 1
                except ShedError:
                    outcomes["shed"] += 1
                except RequestCancelledError:
                    outcomes["cancelled"] += 1
                except ServingError:
                    outcomes["failed"] += 1
        report = server.report()
        # Conservation: every admitted request reached exactly one terminal
        # state and the report counted it exactly once.
        accounted = (
            report.num_requests + report.num_failed + report.num_expired
            + report.num_cancelled + report.num_shed
        )
        assert accounted == len(handles)
        assert report.num_requests == outcomes["done"]
        assert report.num_expired == outcomes["expired"]
        assert report.num_shed == outcomes["shed"]
        assert report.num_cancelled == outcomes["cancelled"]
        assert report.num_failed == outcomes["failed"] == 0
        assert report.num_admission_shed == submit_sheds
        assert report.num_rejected == submit_rejected
        assert report.num_force_aborted == 0


class TestPlanSwap:
    @pytest.mark.parametrize("execution,timeout", [
        ("threads", 30.0), ("processes", 120.0),
    ])
    def test_mid_traffic_swap_drops_nothing(self, execution, timeout):
        served = _plan(seed=23)
        replacement = _plan(seed=23)  # same weights, distinct plan object
        expected = served.layer(LAYER).weight
        acts = _acts(16, seed=41)
        server = Server(served, num_workers=2, max_batch=4, max_pending=64,
                        execution=execution)
        with server:
            before = [server.submit(act) for act in acts[:8]]
            server.swap_plan(replacement)
            after = [server.submit(act) for act in acts[8:]]
            for act, handle in zip(acts, before + after):
                assert np.array_equal(
                    handle.result(timeout=timeout), expected @ act
                )
        report = server.report()
        assert report.num_plan_swaps == 1
        assert server.health().num_plan_swaps == 1
        # Nothing admitted was dropped, failed or re-ordered into an error.
        assert report.num_requests == len(acts)
        assert report.num_failed == 0
        assert "plan swaps (zero-downtime)" in report.render()
        if execution == "processes":
            assert all(shard.plan_swaps == 1 for shard in report.shards)

    def test_swap_installs_new_weights(self):
        served = _plan(seed=23)
        replacement = _plan(seed=99)  # same shapes, different weights
        old_weight = served.layer(LAYER).weight
        new_weight = replacement.layer(LAYER).weight
        assert not np.array_equal(old_weight, new_weight)
        acts = _acts(10, seed=43)
        server = Server(served, num_workers=2, max_batch=4, max_pending=64)
        with server:
            before = [server.submit(act) for act in acts[:5]]
            server.swap_plan(replacement)
            after = [server.submit(act) for act in acts[5:]]
            # In-flight-at-swap requests legitimately land on either plan
            # (claimed-before-swap runs old, queued-past-swap runs new)...
            for act, handle in zip(acts[:5], before):
                output = handle.result(timeout=30.0)
                assert np.array_equal(output, old_weight @ act) or \
                    np.array_equal(output, new_weight @ act)
            # ...but everything submitted after the swap is new-plan, exactly.
            for act, handle in zip(acts[5:], after):
                assert np.array_equal(
                    handle.result(timeout=30.0), new_weight @ act
                )
        assert server.report().num_plan_swaps == 1

    def test_swap_validation_never_disturbs_serving(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=2, max_pending=8)
        with server:
            with pytest.raises(ServingError, match="layer set"):
                server.swap_plan(_plan(num_layers=2))
            with pytest.raises(ServingError, match="k=8"):
                server.swap_plan(_plan(k=8))
            with pytest.raises(ServingError, match="graph"):
                server.swap_plan(
                    _plan(graph=ModelGraph.chain([LAYER]))
                )
            act = _acts(1)[0]
            assert np.array_equal(
                server.submit(act).result(timeout=10.0),
                plan.layer(LAYER).weight @ act,
            )
        assert server.report().num_plan_swaps == 0

    def test_swap_requires_a_running_server(self):
        plan = _plan()
        server = Server(plan, num_workers=1)
        with pytest.raises(ServingError, match="not started"):
            server.swap_plan(_plan())
        server.start()
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.swap_plan(_plan())


class TestForceAbortClose:
    def test_close_timeout_force_aborts_wedged_work(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=4)
        gate = _Gate(server)
        act = _acts(1)[0]
        try:
            server.start()
            wedged = server.submit(act)
            _wait_queue_empty(server)  # claimed, now stuck in the gate
            queued = server.submit(act)
            started = time.perf_counter()
            server.close(drain=True, timeout_s=0.3)
            assert time.perf_counter() - started < 5.0
            with pytest.raises(ServingError, match="force-aborted"):
                wedged.result(timeout=1.0)
            with pytest.raises(ServingError):
                queued.result(timeout=1.0)
            report = server.report()
            assert report.num_force_aborted == 2
            assert report.num_failed == 2
            assert "force-aborted at close" in report.render()
        finally:
            gate.release()

    def test_close_timeout_validation(self):
        server = Server(_plan(), num_workers=1)
        with pytest.raises(ServingError, match="timeout_s"):
            server.close(timeout_s=-1.0)
        server.start()
        server.close(timeout_s=5.0)  # a drained close never force-aborts
        assert server.report().num_force_aborted == 0


class TestOrphanSegmentSweep:
    def _dead_pid(self):
        process = multiprocessing.get_context("spawn").Process(target=_noop)
        process.start()
        process.join()
        return process.pid

    def test_cleanup_unlinks_dead_owner_segments_only(self, tmp_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        orphan = f"/dev/shm/reproshm_{self._dead_pid()}_orphan_0"
        live = f"/dev/shm/reproshm_{os.getpid()}_keep_0"
        for path in (orphan, live):
            with open(path, "wb") as handle:
                handle.write(b"\x00" * 64)
        try:
            cleaned = cleanup_orphan_segments()
            assert os.path.basename(orphan) in cleaned
            assert not os.path.exists(orphan)
            assert os.path.exists(live)  # our own segments are never touched
        finally:
            for path in (orphan, live):
                if os.path.exists(path):
                    os.unlink(path)

    def test_process_server_start_sweeps_orphans(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        orphan = f"/dev/shm/reproshm_{self._dead_pid()}_orphan_1"
        with open(orphan, "wb") as handle:
            handle.write(b"\x00" * 64)
        plan = _plan()
        act = _acts(1)[0]
        try:
            with Server(plan, num_workers=1, max_batch=2, max_pending=4,
                        execution="processes") as server:
                assert not os.path.exists(orphan)
                assert np.array_equal(
                    server.submit(act).result(timeout=60.0),
                    plan.layer(LAYER).weight @ act,
                )
        finally:
            if os.path.exists(orphan):
                os.unlink(orphan)
