"""Names and units of the metrics the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics, with each
end-to-end metric's direction and bound; README.md says what each one means
and which layer should move it.
"""

from __future__ import annotations

from typing import Dict

#: Stage names of ``llama_block_gemms``, in chain order.
STAGES = ("qkv_proj", "attn_score", "o_proj", "gate_proj", "down_proj")

#: End-to-end metrics (name -> unit), printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_rps": "1/s",
    "columns_per_s": "1/s",
    "latency_p50_ms": "ms",
    "p0_deadline_met_share": "share",
    "completed_share": "share",
}

#: Per-layer metrics (name -> unit), printed with ``--trace 1``.
PER_LAYER: Dict[str, str] = {}
for _stage in STAGES:
    PER_LAYER.update({
        f"compile.{_stage}.plan_s": "s",
        f"compile.{_stage}.profile_s": "s",
        f"kernel.{_stage}.ms_per_batch": "ms",
        f"kernel.{_stage}.gops": "Gop/s",
        f"serve.{_stage}.queue_wait_ms": "ms",
        f"serve.{_stage}.batches": "count",
        f"serve.{_stage}.compute_s": "s",
        f"model.{_stage}.cycles": "cycles",
        f"model.{_stage}.compute_cycles": "cycles",
        f"model.{_stage}.dram_cycles": "cycles",
        f"model.{_stage}.speedup_over_dense": "x",
    })
PER_LAYER.update({
    "compile.lowering_s": "s",
    "compile.kernel_mb": "MB",
    "kernel.peak_gops": "Gop/s",
    "kernel.utilization": "share",
    "serve.mean_batch_size": "count",
    "serve.orchestration_share": "share",
    "serve.submit_us_p50": "us",
    "admit.admission_shed": "count",
    "admit.claim_shed": "count",
    "admit.expired": "count",
    "admit.p1_served_share": "share",
    "admit.breaker_trips": "count",
    "admit.shed_share": "share",
    "gen.lag_p99_ms": "ms",
    "trace.throughput_ratio": "x",
    "trace.latency_p50_ratio": "x",
})
