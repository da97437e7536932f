"""Serving-side statistics: latency percentiles, throughput, energy.

The report is assembled by the server after (or during) a serving run from
the completed requests and executed batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.metrics import OpCounts
from ..core.transitive_gemm import ScoreboardCacheInfo
from ..energy.breakdown import EnergyBreakdown
from ..errors import ServingError
from .plan import CompileStats


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

    In ``execution="processes"`` each entry is one worker *process* (shard);
    in thread mode the server reports one synthetic entry per worker thread
    so tooling can treat both modes uniformly.  ``compute_s`` is time inside
    the engine pass; ``dispatch_s`` is everything else the shard's batches
    cost (queue hand-off, shared-memory copies, result transport), so
    ``compute_s / (compute_s + dispatch_s)`` is the shard's compute
    efficiency and the spread of ``batches`` across shards shows load skew.
    """

    shard: int
    batches: int
    requests: int
    compute_s: float
    dispatch_s: float
    restarts: int = 0
    #: Batches that fell back to pickle transport (batch exceeded a ring
    #: slot); always 0 in thread mode.
    shm_fallbacks: int = 0
    #: Zero-downtime plan swaps this shard absorbed (always 0 in thread mode,
    #: where the swap replaces the shared plan instead of per-shard replicas).
    plan_swaps: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of this shard's busy time spent inside the engine pass."""
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
            "restarts": self.restarts,
            "shm_fallbacks": self.shm_fallbacks,
            "plan_swaps": self.plan_swaps,
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
    scoreboard_cache: Optional[ScoreboardCacheInfo] = None
    attributed_cycles: Optional[int] = None
    attributed_energy: Optional[EnergyBreakdown] = None
    #: Offline-compilation statistics of the served plan (compile and
    #: kernel-build time, kernel bytes); ``None`` for plans built without them.
    compile_stats: Optional[CompileStats] = None
    #: Execution tier the run used: ``"threads"`` or ``"processes"``.
    execution: str = "threads"
    #: Per-shard (worker) utilization; empty when the server predates shards.
    shards: Tuple[ShardStats, ...] = ()
    #: Total seconds completed requests spent queued before dispatch.
    queue_wait_s_total: float = 0.0
    #: Total seconds spent inside engine passes, summed across shards.
    compute_s_total: float = 0.0
    #: Total non-compute busy seconds (hand-off + transport) across shards.
    dispatch_s_total: float = 0.0
    #: Batches that fell back from shared-memory to pickle transport.
    shm_fallbacks: int = 0
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
        """Compute share of total shard busy time (1.0 = no overhead)."""
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
        if self.scoreboard_cache is not None:
            summary["engine_cache"] = {
                "hits": self.scoreboard_cache.hits,
                "misses": self.scoreboard_cache.misses,
                "entries": self.scoreboard_cache.entries,
                "hit_rate": self.scoreboard_cache.hit_rate,
            }
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
        summary["execution"] = self.execution
        summary["queue_wait_s_total"] = self.queue_wait_s_total
        summary["compute_s_total"] = self.compute_s_total
        summary["dispatch_s_total"] = self.dispatch_s_total
        summary["compute_fraction"] = self.compute_fraction
        summary["shm_fallbacks"] = self.shm_fallbacks
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


def build_report(
    workload: str,
    latencies_s: List[float],
    queue_delays_s: List[float],
    wall_s: float,
    total_columns: int,
    num_failed: int,
    num_rejected: int,
    batch_sizes: List[int],
    requests_per_layer: Dict[str, int],
    plan_hits: int,
    plan_misses: int,
    op_counts: Optional[OpCounts],
    scoreboard_cache: Optional[ScoreboardCacheInfo],
    attributed_cycles: Optional[int],
    attributed_energy: Optional[EnergyBreakdown],
    num_expired: int = 0,
    num_cancelled: int = 0,
    num_retried: int = 0,
    num_degraded: int = 0,
    num_worker_restarts: int = 0,
    compile_stats: Optional[CompileStats] = None,
    execution: str = "threads",
    shards: Sequence[ShardStats] = (),
    stages: Sequence[StageStats] = (),
    model_latencies_s: Sequence[float] = (),
    num_model_failed: int = 0,
    pipeline_depth: int = 0,
    num_shed: int = 0,
    num_admission_shed: int = 0,
    breaker_trips: int = 0,
    breaker_state: str = "disabled",
    num_plan_swaps: int = 0,
    num_force_aborted: int = 0,
    num_deadline_met: int = 0,
    deadline_met_by_priority: Optional[Dict[int, int]] = None,
) -> ServingReport:
    """Assemble a :class:`ServingReport` from raw serving-run samples.

    ``latencies_s`` may be empty (a run whose every request failed — or a
    monitoring poll before any finished — still needs a well-formed report);
    the latency and throughput figures are zero in that case.
    """
    wall = max(wall_s, 1e-12)
    goodput_by_priority = {
        priority: count / wall
        for priority, count in sorted((deadline_met_by_priority or {}).items())
    }
    return ServingReport(
        workload=workload,
        num_requests=len(latencies_s),
        num_failed=num_failed,
        num_rejected=num_rejected,
        num_expired=num_expired,
        num_cancelled=num_cancelled,
        num_retried=num_retried,
        num_degraded=num_degraded,
        num_worker_restarts=num_worker_restarts,
        total_columns=total_columns,
        wall_s=wall_s,
        throughput_rps=len(latencies_s) / wall,
        throughput_cols_per_s=total_columns / wall,
        latency_mean_s=(
            sum(latencies_s) / len(latencies_s) if latencies_s else 0.0
        ),
        latency_p50_s=percentile(latencies_s, 50.0) if latencies_s else 0.0,
        latency_p95_s=percentile(latencies_s, 95.0) if latencies_s else 0.0,
        latency_p99_s=percentile(latencies_s, 99.0) if latencies_s else 0.0,
        queue_delay_mean_s=(
            sum(queue_delays_s) / len(queue_delays_s) if queue_delays_s else 0.0
        ),
        num_batches=len(batch_sizes),
        mean_batch_size=(
            sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
        ),
        max_batch_size=max(batch_sizes) if batch_sizes else 0,
        plan_hits=plan_hits,
        plan_misses=plan_misses,
        requests_per_layer=requests_per_layer,
        op_counts=op_counts,
        scoreboard_cache=scoreboard_cache,
        attributed_cycles=attributed_cycles,
        attributed_energy=attributed_energy,
        compile_stats=compile_stats,
        execution=execution,
        shards=tuple(shards),
        queue_wait_s_total=sum(queue_delays_s),
        compute_s_total=sum(shard.compute_s for shard in shards),
        dispatch_s_total=sum(shard.dispatch_s for shard in shards),
        shm_fallbacks=sum(shard.shm_fallbacks for shard in shards),
        stages=tuple(stages),
        num_model_requests=len(model_latencies_s),
        num_model_failed=num_model_failed,
        model_latency_mean_s=(
            sum(model_latencies_s) / len(model_latencies_s)
            if model_latencies_s
            else 0.0
        ),
        model_latency_p50_s=(
            percentile(list(model_latencies_s), 50.0) if model_latencies_s else 0.0
        ),
        model_latency_p95_s=(
            percentile(list(model_latencies_s), 95.0) if model_latencies_s else 0.0
        ),
        model_latency_p99_s=(
            percentile(list(model_latencies_s), 99.0) if model_latencies_s else 0.0
        ),
        pipeline_depth=pipeline_depth,
        num_shed=num_shed,
        num_admission_shed=num_admission_shed,
        breaker_trips=breaker_trips,
        breaker_state=breaker_state,
        num_plan_swaps=num_plan_swaps,
        num_force_aborted=num_force_aborted,
        num_deadline_met=num_deadline_met,
        goodput_rps=num_deadline_met / wall,
        goodput_by_priority=goodput_by_priority,
    )
