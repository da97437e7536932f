"""Dynamic micro-batcher: one engine pass per coalesced same-layer batch.

The batcher is the bridge between queued requests and the compiled plan: it
folds up to ``max_batch`` activations bound for one layer into a single
:meth:`~repro.core.transitive_gemm.TransitiveGemmEngine.multiply_many` call,
splits the outputs back per request, stamps timestamps, and attributes
accelerator cycles/energy to each request when the plan was compiled with a
cycle model.  Outputs are bit-identical to serving each request alone — the
engine concatenates activation columns, and the weights (and therefore the
scoreboard pass) are shared by construction.

:meth:`MicroBatcher.execute_once` runs one engine pass over *already
claimed* requests and **raises** on failure without touching their state, so
the server can wrap it in its retry policy and degraded fallback.  The
optional :class:`~repro.serving.faults.FaultInjector` hook fires immediately
before the engine pass (inside the retried region, so injected transient
faults exercise the retry path end to end).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..core.metrics import OpCounts
from ..errors import ServingError
from .faults import FaultInjector
from .plan import ModelPlan
from .request import Request


@dataclass(frozen=True)
class BatchExecution:
    """Bookkeeping record of one executed micro-batch."""

    layer: str
    batch_size: int
    total_columns: int
    started_at: float
    finished_at: float
    op_counts: OpCounts
    #: Pure engine-pass time (excludes attribution/fulfilment): what both
    #: per-stage and per-worker compute accounting charge.
    compute_s: float


class MicroBatcher:
    """Executes coalesced same-layer request batches against a model plan."""

    def __init__(self, plan: ModelPlan, *, faults: Optional[FaultInjector] = None) -> None:
        self.plan = plan
        self.faults = faults

    def execute_once(self, requests: List[Request]) -> BatchExecution:
        """One engine pass over claimed requests; raises on failure.

        The requests must already be ``running`` (claimed by the caller).  On
        success every request is fulfilled; on failure the error propagates
        with the requests untouched, so the caller decides between retrying,
        degrading per-request, or failing the batch.
        """
        if not requests:
            raise ServingError("cannot execute an empty micro-batch")
        layer = requests[0].layer
        if any(request.layer != layer for request in requests):
            raise ServingError(
                "micro-batch mixes layers: "
                f"{sorted({request.layer for request in requests})}"
            )
        started_at = time.perf_counter()
        if self.faults is not None:
            self.faults.on_batch(layer, len(requests))
        report = self.plan.run_batch(
            layer, [request.activation for request in requests]
        )
        compute_s = time.perf_counter() - started_at
        # Attribute before fulfilling anything: a failure here must fail
        # the whole batch consistently, never leave it half-delivered.
        attributions = [
            self.plan.attribute(layer, request.columns) for request in requests
        ]
        finished_at = time.perf_counter()
        for request, output, attribution in zip(
            requests, report.outputs, attributions
        ):
            request.attribution = attribution
            request.fulfil(output, finished_at)
        return BatchExecution(
            layer=layer,
            batch_size=len(requests),
            total_columns=report.total_columns,
            started_at=started_at,
            finished_at=finished_at,
            op_counts=report.op_counts,
            compute_s=compute_s,
        )
