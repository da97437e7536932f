"""Serving accounting: the running ledger and the reports derived from it.

Every finished request is folded into the :class:`ServingLedger` exactly
once, as running per-layer, per-priority, per-worker and model-level
totals plus one float64 latency sample per completion.  Nothing else about
a request is kept, so a serve-forever process holds a few bytes per request,
and :meth:`~repro.serving.server.Server.report` reads the totals plus one
percentile pass over the samples.  :class:`ServerHealth` (live monitoring) and
:class:`ServingReport` (the end-of-run summary) both read one locked
snapshot of the ledger, so the counters they share always agree.
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.metrics import OpCounts
from ..energy.breakdown import EnergyBreakdown
from ..errors import ServingError
from .batcher import BatchExecution
from .model_request import ModelRequest
from .plan import CompileStats
from .request import CANCELLED, DONE, EXPIRED, FAILED, SHED, Request


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile of a non-empty sample (``numpy.percentile`` with
    library-typed validation errors)."""
    if not values:
        raise ServingError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ServingError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class ShardStats:
    """Per-worker utilization of one serving run.

    One entry per worker thread.  ``compute_s`` is time inside the engine
    pass; ``dispatch_s`` is everything else the worker's batches cost
    (claiming, retries, accounting), so ``compute_s / (compute_s +
    dispatch_s)`` is the worker's compute efficiency and the spread of
    ``batches`` across workers shows load skew.
    """

    shard: int
    batches: int
    requests: int
    compute_s: float
    dispatch_s: float

    @property
    def utilization(self) -> float:
        """Fraction of this worker's busy time spent inside the engine pass."""
        busy = self.compute_s + self.dispatch_s
        return self.compute_s / busy if busy > 0.0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "batches": self.batches,
            "requests": self.requests,
            "compute_s": self.compute_s,
            "dispatch_s": self.dispatch_s,
            "utilization": self.utilization,
        }


@dataclass(frozen=True)
class StageStats:
    """Per-pipeline-stage breakdown of one whole-model serving run.

    One entry per :class:`~repro.serving.graph.ModelGraph` stage, aggregated
    over every stage-level request the run routed through that stage.
    ``occupancy`` is the fraction of the run's wall-clock the stage spent
    inside engine passes — in a well-overlapped pipeline the occupancies sum
    toward the worker count, while a serial (non-overlapped) execution keeps
    their sum below 1.
    """

    stage: int
    layer: str
    requests: int
    batches: int
    compute_s: float
    queue_wait_mean_s: float
    latency_mean_s: float
    latency_p95_s: float
    occupancy: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "layer": self.layer,
            "requests": self.requests,
            "batches": self.batches,
            "compute_s": self.compute_s,
            "queue_wait_mean_s": self.queue_wait_mean_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_p95_s": self.latency_p95_s,
            "occupancy": self.occupancy,
        }


@dataclass
class ServingReport:
    """Aggregate outcome of one serving run against a compiled plan.

    Latencies are wall-clock submit-to-finish seconds; ``throughput_rps`` is
    completed requests over the span from the first submission to the last
    completion.  ``attributed_cycles`` / ``attributed_energy`` are only
    populated when the plan was compiled with an accelerator cycle model.
    """

    workload: str
    num_requests: int
    num_failed: int
    num_rejected: int
    num_expired: int
    num_cancelled: int
    num_retried: int
    num_degraded: int
    num_worker_restarts: int
    total_columns: int
    wall_s: float
    throughput_rps: float
    throughput_cols_per_s: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    queue_delay_mean_s: float
    num_batches: int
    mean_batch_size: float
    max_batch_size: int
    plan_hits: int
    plan_misses: int
    requests_per_layer: Dict[str, int] = field(default_factory=dict)
    op_counts: Optional[OpCounts] = None
    attributed_cycles: Optional[int] = None
    attributed_energy: Optional[EnergyBreakdown] = None
    #: Offline-compilation statistics of the served plan (compile and
    #: kernel-build time, kernel bytes); ``None`` for plans built without them.
    compile_stats: Optional[CompileStats] = None
    #: Per-worker utilization, one entry per worker thread.
    shards: Tuple[ShardStats, ...] = ()
    #: Total seconds completed requests spent queued before dispatch.
    queue_wait_s_total: float = 0.0
    #: Total seconds spent inside engine passes, summed across workers.
    compute_s_total: float = 0.0
    #: Total non-compute busy seconds across workers.
    dispatch_s_total: float = 0.0
    #: Per-pipeline-stage breakdown (empty without whole-model requests).
    stages: Tuple[StageStats, ...] = ()
    #: Completed whole-model (pipelined) requests.
    num_model_requests: int = 0
    #: Whole-model requests that finished failed/expired/cancelled.
    num_model_failed: int = 0
    #: Model-level submit-to-finish latency over completed model requests.
    model_latency_mean_s: float = 0.0
    model_latency_p50_s: float = 0.0
    model_latency_p95_s: float = 0.0
    model_latency_p99_s: float = 0.0
    #: Pipeline stages a model-level request passes through (0 = no graph).
    pipeline_depth: int = 0
    #: Requests terminated by the overload-control layer without compute:
    #: claim-time doomed sheds plus circuit-breaker sheds.
    num_shed: int = 0
    #: Requests shed synchronously at submission (the client got a
    #: :class:`~repro.errors.ShedError` before the queue ever saw them —
    #: accounted like ``num_rejected``, outside ``num_requests``).
    num_admission_shed: int = 0
    #: Degraded-path circuit breaker: times it tripped open, and its state
    #: when the report was built ("disabled" when no breaker is configured).
    breaker_trips: int = 0
    breaker_state: str = "disabled"
    #: Zero-downtime plan swaps performed during the run.
    num_plan_swaps: int = 0
    #: Requests force-aborted by ``close(timeout_s=...)`` past its deadline.
    num_force_aborted: int = 0
    #: Completed requests that met their deadline (no deadline = met).
    num_deadline_met: int = 0
    #: Deadline-met completions per second — the overload headline: unlike
    #: ``throughput_rps`` it does not credit work that finished too late.
    goodput_rps: float = 0.0
    #: Goodput broken down by QoS priority class.
    goodput_by_priority: Dict[int, float] = field(default_factory=dict)

    @property
    def compute_fraction(self) -> float:
        """Compute share of total worker busy time (1.0 = no overhead)."""
        busy = self.compute_s_total + self.dispatch_s_total
        return self.compute_s_total / busy if busy > 0.0 else 0.0

    @property
    def plan_hit_rate(self) -> float:
        """Engine passes served from precompiled scoreboards during the run
        vs. the offline compilations of the layers the run touched."""
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    def render(self) -> str:
        """Aligned plain-text table of the report (examples print this)."""
        from ..analysis.reporting import format_serving_report

        return format_serving_report(self)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (written by ``bench_serving``)."""
        summary: Dict[str, object] = {
            "workload": self.workload,
            "num_requests": self.num_requests,
            "num_failed": self.num_failed,
            "num_rejected": self.num_rejected,
            "num_expired": self.num_expired,
            "num_cancelled": self.num_cancelled,
            "num_retried": self.num_retried,
            "num_degraded": self.num_degraded,
            "num_worker_restarts": self.num_worker_restarts,
            "total_columns": self.total_columns,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "throughput_cols_per_s": self.throughput_cols_per_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "queue_delay_mean_s": self.queue_delay_mean_s,
            "num_batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": self.plan_hit_rate,
            "requests_per_layer": dict(self.requests_per_layer),
        }
        if self.op_counts is not None:
            summary["transitive_ops"] = self.op_counts.transitive_ops
            summary["density"] = self.op_counts.density
        if self.attributed_cycles is not None:
            summary["attributed_cycles"] = self.attributed_cycles
        if self.attributed_energy is not None:
            summary["attributed_energy_nj"] = self.attributed_energy.total_nj
        if self.compile_stats is not None:
            summary["compile_stats"] = self.compile_stats.as_dict()
        summary["num_shed"] = self.num_shed
        summary["num_admission_shed"] = self.num_admission_shed
        summary["breaker_trips"] = self.breaker_trips
        summary["breaker_state"] = self.breaker_state
        summary["num_plan_swaps"] = self.num_plan_swaps
        summary["num_force_aborted"] = self.num_force_aborted
        summary["num_deadline_met"] = self.num_deadline_met
        summary["goodput_rps"] = self.goodput_rps
        summary["goodput_by_priority"] = {
            str(priority): rps
            for priority, rps in sorted(self.goodput_by_priority.items())
        }
        summary["queue_wait_s_total"] = self.queue_wait_s_total
        summary["compute_s_total"] = self.compute_s_total
        summary["dispatch_s_total"] = self.dispatch_s_total
        summary["compute_fraction"] = self.compute_fraction
        if self.shards:
            summary["shards"] = [shard.as_dict() for shard in self.shards]
        if self.pipeline_depth or self.num_model_requests or self.stages:
            summary["pipeline"] = {
                "depth": self.pipeline_depth,
                "num_model_requests": self.num_model_requests,
                "num_model_failed": self.num_model_failed,
                "model_latency_mean_s": self.model_latency_mean_s,
                "model_latency_p50_s": self.model_latency_p50_s,
                "model_latency_p95_s": self.model_latency_p95_s,
                "model_latency_p99_s": self.model_latency_p99_s,
                "stages": [stage.as_dict() for stage in self.stages],
            }
        return summary


@dataclass(frozen=True)
class ServerHealth:
    """Point-in-time liveness and fault-tolerance counters of a server.

    Safe to poll from monitoring code at any moment of the server lifecycle
    (including before :meth:`Server.start` and after :meth:`Server.close`).
    """

    started: bool
    closed: bool
    num_workers: int
    alive_workers: int
    queue_depth: int
    queue_capacity: int
    num_rejected: int
    num_expired: int
    num_cancelled: int
    num_retried: int
    num_degraded: int
    num_worker_restarts: int
    #: Requests shed post-admission (claim-time doomed + breaker-blocked).
    num_shed: int = 0
    #: Requests shed at admission time (brownout / doomed-at-submit).
    num_admission_shed: int = 0
    #: Degraded-path circuit-breaker state ("disabled" when not configured).
    breaker_state: str = "disabled"
    #: Zero-downtime plan swaps completed so far.
    num_plan_swaps: int = 0

    @property
    def healthy(self) -> bool:
        """Accepting work with at least one live worker."""
        return self.started and not self.closed and self.alive_workers > 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot for monitoring endpoints."""
        return {
            "healthy": self.healthy,
            "started": self.started,
            "closed": self.closed,
            "num_workers": self.num_workers,
            "alive_workers": self.alive_workers,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "num_rejected": self.num_rejected,
            "num_expired": self.num_expired,
            "num_cancelled": self.num_cancelled,
            "num_retried": self.num_retried,
            "num_degraded": self.num_degraded,
            "num_worker_restarts": self.num_worker_restarts,
            "num_shed": self.num_shed,
            "num_admission_shed": self.num_admission_shed,
            "breaker_state": self.breaker_state,
            "num_plan_swaps": self.num_plan_swaps,
        }


def _summary(samples: array) -> Tuple[float, float, float, float]:
    """Mean, p50, p95 and p99 of a latency sample (all zero when empty)."""
    if not samples:
        return 0.0, 0.0, 0.0, 0.0
    p50, p95, p99 = np.percentile(samples, (50.0, 95.0, 99.0))
    return sum(samples) / len(samples), float(p50), float(p95), float(p99)


@dataclass
class _LayerTotals:
    """Running totals of one layer's finished stage requests and batches."""

    #: Finished stage requests per terminal state.
    states: Counter = field(default_factory=Counter)
    retries: int = 0
    #: Completed requests that the degraded fallback served.
    degraded: int = 0
    #: Activation columns of completed requests.
    columns: int = 0
    #: Submit-to-claim seconds summed over completed requests.
    queue_wait_s: float = 0.0
    #: Submit-to-finish seconds of each completed request, in finish order.
    latencies: array = field(default_factory=lambda: array("d"))
    #: Fast-path batches: how many, their summed and largest sizes, their
    #: engine-pass seconds and the scoreboard work they spent.
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    compute_s: float = 0.0
    op_counts: Optional[OpCounts] = None

    def copy(self) -> "_LayerTotals":
        return replace(
            self, states=Counter(self.states), latencies=array("d", self.latencies)
        )

    def stage_stats(self, stage: int, layer: str, wall: float) -> StageStats:
        """This layer's totals as pipeline stage ``stage`` of a run of
        ``wall`` seconds (occupancy = engine seconds over wall-clock)."""
        done = self.states[DONE]
        latency_mean_s, _, latency_p95_s, _ = _summary(self.latencies)
        return StageStats(
            stage=stage,
            layer=layer,
            requests=done,
            batches=self.batches,
            compute_s=self.compute_s,
            queue_wait_mean_s=self.queue_wait_s / done if done else 0.0,
            latency_mean_s=latency_mean_s,
            latency_p95_s=latency_p95_s,
            occupancy=self.compute_s / wall,
        )


def _shared_counters(
    layers: Sequence[_LayerTotals], events: Counter
) -> Dict[str, int]:
    """The ledger counters :class:`ServerHealth` and :class:`ServingReport`
    share, keyed by their common field names."""
    return {
        "num_expired": sum(totals.states[EXPIRED] for totals in layers),
        "num_cancelled": sum(totals.states[CANCELLED] for totals in layers),
        "num_shed": sum(totals.states[SHED] for totals in layers),
        "num_retried": sum(totals.retries for totals in layers),
        "num_degraded": sum(totals.degraded for totals in layers),
        "num_admission_shed": events["admission_shed"],
        "num_plan_swaps": events["plan_swaps"],
    }


class ServingLedger:
    """Running accounting totals of one server.

    The server folds each finished stage request in once (:meth:`fold`),
    each whole-model request once (:meth:`fold_model`), each worker batch
    once (:meth:`fold_worker`), and counts events that finish no request
    (:meth:`count`: ``admission_shed``, ``plan_swaps``, ``force_aborted``).
    All of it sits under one lock, which :meth:`counters` and
    :meth:`report` take to read a consistent snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._layers: Dict[str, _LayerTotals] = defaultdict(_LayerTotals)
        #: Per-worker utilization, keyed by worker index.
        self._workers: Dict[int, ShardStats] = {}
        #: Completions inside their deadline budget, per priority class.
        self._met_by_priority: Counter = Counter()
        #: Submit-to-finish seconds of each completed model request.
        self._model_latencies = array("d")
        self._model_failed = 0
        self._first_submit = float("inf")
        self._last_finish = float("-inf")
        self._attributed_cycles: Optional[int] = None
        self._attributed_energy: Optional[EnergyBreakdown] = None
        self._events: Counter = Counter()

    # ---------------------------------------------------------------- folding
    def fold(
        self,
        requests: Iterable[Request],
        execution: Optional[BatchExecution] = None,
    ) -> None:
        """Fold finished stage requests in, with the fast-path batch that
        computed them (``None`` when no engine pass succeeded)."""
        now = time.perf_counter()
        with self._lock:
            if execution is not None:
                totals = self._layers[execution.layer]
                totals.batches += 1
                totals.batched_requests += execution.batch_size
                totals.max_batch_size = max(
                    totals.max_batch_size, execution.batch_size
                )
                totals.compute_s += execution.compute_s
                totals.op_counts = (
                    execution.op_counts
                    if totals.op_counts is None
                    else totals.op_counts.merge(execution.op_counts)
                )
            for request in requests:
                self._fold_request(request, now)

    def _fold_request(self, request: Request, now: float) -> None:
        finished_at = request.finished_at if request.finished_at is not None else now
        self._first_submit = min(self._first_submit, request.submitted_at)
        self._last_finish = max(self._last_finish, finished_at)
        totals = self._layers[request.layer]
        totals.states[request.state] += 1
        totals.retries += request.retries
        if request.state != DONE:
            return
        totals.columns += request.columns
        totals.latencies.append(finished_at - request.submitted_at)
        if request.started_at is not None:
            totals.queue_wait_s += request.started_at - request.submitted_at
        if request.degraded:
            totals.degraded += 1
        if request.deadline_at is None or finished_at <= request.deadline_at:
            self._met_by_priority[request.priority] += 1
        attribution = request.attribution
        if attribution is not None:
            if self._attributed_cycles is None:
                self._attributed_cycles = 0
                self._attributed_energy = EnergyBreakdown()
            self._attributed_cycles += attribution.cycles
            self._attributed_energy = self._attributed_energy.merge(
                attribution.energy
            )

    def fold_model(self, model_request: ModelRequest) -> None:
        """Fold one finished whole-model request in."""
        with self._lock:
            if model_request.state == DONE:
                self._model_latencies.append(model_request.latency_s)
            else:
                self._model_failed += 1

    def fold_worker(
        self, worker: int, requests: int, compute_s: float, busy_s: float
    ) -> None:
        """Charge one batch to a worker: ``compute_s`` engine-pass seconds
        out of the ``busy_s`` seconds from claiming the batch to settling it."""
        with self._lock:
            stats = self._workers.get(worker) or ShardStats(worker, 0, 0, 0.0, 0.0)
            self._workers[worker] = replace(
                stats,
                batches=stats.batches + 1,
                requests=stats.requests + requests,
                compute_s=stats.compute_s + compute_s,
                dispatch_s=stats.dispatch_s + max(busy_s - compute_s, 0.0),
            )

    def count(self, event: str, n: int = 1) -> None:
        """Count ``n`` occurrences of an event that finishes no request."""
        with self._lock:
            self._events[event] += n

    # -------------------------------------------------------------- reading
    def counters(self) -> Dict[str, int]:
        """The counters :class:`ServerHealth` reports, from one snapshot."""
        with self._lock:
            return _shared_counters(list(self._layers.values()), self._events)

    def report(
        self,
        *,
        workload: str,
        stage_layers: Sequence[str],
        num_workers: int,
        num_rejected: int,
        num_worker_restarts: int,
        compile_stats: Optional[CompileStats],
        breaker_trips: int,
        breaker_state: str,
    ) -> ServingReport:
        """Derive the :class:`ServingReport` from one snapshot of the ledger.

        The keywords carry what the server, not the ledger, knows:
        ``stage_layers`` names the pipeline stages in order (empty without a
        model graph) and ``num_workers`` the worker slots, one
        :class:`ShardStats` each.
        """
        with self._lock:
            layers = {name: totals.copy() for name, totals in self._layers.items()}
            workers = dict(self._workers)
            met = dict(self._met_by_priority)
            model_latencies = array("d", self._model_latencies)
            model_failed = self._model_failed
            wall_s = (
                self._last_finish - self._first_submit
                if math.isfinite(self._first_submit)
                else 0.0
            )
            attributed_cycles = self._attributed_cycles
            attributed_energy = self._attributed_energy
            events = Counter(self._events)
        wall = max(wall_s, 1e-12)
        totals = list(layers.values())
        done = sum(layer.states[DONE] for layer in totals)
        columns = sum(layer.columns for layer in totals)
        queue_wait_s = sum(layer.queue_wait_s for layer in totals)
        latencies = array("d")
        for layer in totals:
            latencies.extend(layer.latencies)
        latency = _summary(latencies)
        model_latency = _summary(model_latencies)
        batched = [layer for layer in totals if layer.batches]
        num_batches = sum(layer.batches for layer in batched)
        op_counts: Optional[OpCounts] = None
        for layer in batched:
            op_counts = (
                layer.op_counts if op_counts is None else op_counts.merge(layer.op_counts)
            )
        shards = tuple(
            workers.get(index, ShardStats(index, 0, 0, 0.0, 0.0))
            for index in range(num_workers)
        )
        deadline_met = sum(met.values())
        return ServingReport(
            workload=workload,
            num_requests=done,
            num_failed=sum(layer.states[FAILED] for layer in totals),
            num_rejected=num_rejected,
            num_worker_restarts=num_worker_restarts,
            **_shared_counters(totals, events),
            total_columns=columns,
            wall_s=wall_s,
            throughput_rps=done / wall,
            throughput_cols_per_s=columns / wall,
            latency_mean_s=latency[0],
            latency_p50_s=latency[1],
            latency_p95_s=latency[2],
            latency_p99_s=latency[3],
            queue_delay_mean_s=queue_wait_s / done if done else 0.0,
            num_batches=num_batches,
            mean_batch_size=(
                sum(layer.batched_requests for layer in batched) / num_batches
                if num_batches
                else 0.0
            ),
            max_batch_size=max((layer.max_batch_size for layer in batched), default=0),
            # Every fast-path batch reused a precompiled scoreboard (a hit);
            # the misses are the offline compilations of the layers served.
            plan_hits=num_batches,
            plan_misses=len(batched),
            requests_per_layer={
                name: layer.states[DONE]
                for name, layer in layers.items()
                if layer.states[DONE]
            },
            op_counts=op_counts,
            attributed_cycles=attributed_cycles,
            attributed_energy=attributed_energy,
            compile_stats=compile_stats,
            shards=shards,
            queue_wait_s_total=queue_wait_s,
            compute_s_total=sum(shard.compute_s for shard in shards),
            dispatch_s_total=sum(shard.dispatch_s for shard in shards),
            stages=tuple(
                layers.get(layer, _LayerTotals()).stage_stats(index, layer, wall)
                for index, layer in enumerate(stage_layers)
            ),
            num_model_requests=len(model_latencies),
            num_model_failed=model_failed,
            model_latency_mean_s=model_latency[0],
            model_latency_p50_s=model_latency[1],
            model_latency_p95_s=model_latency[2],
            model_latency_p99_s=model_latency[3],
            pipeline_depth=len(stage_layers),
            breaker_trips=breaker_trips,
            breaker_state=breaker_state,
            num_force_aborted=events["force_aborted"],
            num_deadline_met=deadline_met,
            goodput_rps=deadline_met / wall,
            goodput_by_priority={
                priority: count / wall for priority, count in sorted(met.items())
            },
        )
