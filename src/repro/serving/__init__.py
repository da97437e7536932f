"""Online inference serving over compiled transitive-GEMM model plans.

This package is the request-driven execution mode the paper's *static
scoreboard* was designed for: compile once, serve forever.

* :mod:`repro.serving.plan` — offline compilation of any
  :class:`~repro.workloads.gemm.GemmWorkload` into a :class:`ModelPlan`
  (per-layer weights bit-sliced and scoreboarded once, with float32 and
  float64 copies and a row bound pinned for the exact-BLAS product — optionally per-layer
  mixed precision via ``quant_schemes=`` — with :class:`CompileStats`
  recording what that cost);
* :mod:`repro.serving.graph` — the :class:`ModelGraph` of declared
  inter-layer dataflow that turns a bag of compiled layers into a servable
  pipeline (``graph="chain"`` at compile time for the common case);
* :mod:`repro.serving.request` / :mod:`repro.serving.queue` — future-style
  requests and the bounded admission-controlled queue;
* :mod:`repro.serving.model_request` — the client surface:
  :class:`SubmitOptions` and the :class:`ModelRequest` handle returned by
  ``Server.submit(activation)`` (single forward pass or ``stream=N``
  autoregressive decode steps);
* :mod:`repro.serving.batcher` — the dynamic micro-batcher coalescing
  same-layer activations into single engine passes (per-stage
  micro-batching of pipelined requests comes through the same path);
* :mod:`repro.serving.server` — the supervised :class:`Server`: worker
  threads running the exact BLAS product (it releases the GIL), worker
  restarts, :meth:`Server.health` and drain/abort shutdown; ``start()`` pins
  BLAS to one thread per worker (:mod:`repro.serving.blas`);
* :mod:`repro.serving.policy` — per-request deadlines, the
  :class:`RetryPolicy` applied around batch execution, and the
  overload-resilience pieces: the :class:`AdmissionController` behind
  adaptive load shedding / QoS brownout and the :class:`CircuitBreaker`
  guarding the degraded-oracle fallback;
* :mod:`repro.serving.faults` — the :class:`FaultInjector` chaos-testing
  harness (injected engine faults, worker crashes, artificial latency) and
  the seeded open-loop :class:`ArrivalSchedule` overload scenarios;
* :mod:`repro.serving.report` — throughput / latency-percentile / energy /
  fault-tolerance accounting rendered by
  :func:`repro.analysis.format_serving_report`.
"""

from .plan import CompileStats, LayerPlan, ModelPlan, compile_workload
from .graph import INPUT, ModelGraph, StageSpec
from .request import Request
from .model_request import ModelRequest, SubmitOptions
from .queue import RequestQueue
from .batcher import BatchExecution, MicroBatcher
from .policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_RETRY_POLICY,
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
)
from .faults import ArrivalSchedule, FaultInjector, FaultPlan, FaultStats
from .report import ServingReport, ShardStats, StageStats, build_report, percentile
from .server import Server, ServerHealth

__all__ = [
    "CompileStats",
    "LayerPlan",
    "ModelPlan",
    "compile_workload",
    "INPUT",
    "ModelGraph",
    "StageSpec",
    "Request",
    "ModelRequest",
    "SubmitOptions",
    "RequestQueue",
    "BatchExecution",
    "MicroBatcher",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "AdmissionController",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "ArrivalSchedule",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "ServingReport",
    "ShardStats",
    "StageStats",
    "build_report",
    "percentile",
    "Server",
    "ServerHealth",
]
