#!/usr/bin/env python3
"""Serving benchmark of the transitive-GEMM serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 15 --trace 0

Compiles a five-stage LLaMA block chain through the public serving API
(``compile_workload`` -> ``Server`` -> model-level ``submit``/``result`` ->
``report``), drives it with one generator thread for ``--seconds``, checks
every output against an exact oracle outside the timed region and prints each
metric by name with its unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing off;
with ``--trace 1`` they are the per-layer ledger of a traced run, including
the tracing overhead.  The full result, with the machine fingerprint and the
spans of a traced run, goes to ``perfbench/out/``.  The exit code is non-zero
when any output or simulated statistic fails its check.  See README.md.
"""

from __future__ import annotations

import os
import sys

#: BLAS thread variables, pinned before NumPy is imported so BLAS threads do
#: not oversubscribe the two serving workers.
BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _name in BLAS_THREAD_ENV:
    os.environ[_name] = "1"

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write(f"perfbench: no src/repro under {ROOT}; run from a full checkout\n")
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import numpy as np  # noqa: E402

from repro.baselines import DenseInt8Accelerator  # noqa: E402
from repro.core import TransitiveGemmEngine  # noqa: E402
from repro.serving import Server, compile_workload  # noqa: E402
from repro.transarray import TransitiveArrayAccelerator  # noqa: E402
from repro.workloads.llama import LlamaConfig, llama_block_gemms  # noqa: E402

from perfbench.loadgen import Generator, Sent, Tracer  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, STAGES  # noqa: E402
from perfbench.oracle import ChainOracle, matches  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ACTIVATION_BITS, MAX_BATCH, MAX_PENDING, NUM_WORKERS, PHASE_A_SHARE,
    WEIGHT_BITS, WORKLOADS, Workload, input_pool, overload_schedule,
    request_input,
)

OUT_DIR = ROOT / "perfbench" / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of a closed loop's time left unmeasured while its sessions, which
#: start together, spread out.
RAMP_SHARE = 0.2


# ------------------------------------------------------------------ machine
def peak_gops() -> float:
    """Best-of-five float64 GEMM rate on one BLAS thread, in Gop/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 1024))
    b = rng.standard_normal((1024, 256))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * 1024 * 1024 * 256 / best / 1e9


def machine_fingerprint(peak: float) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except Exception:  # noqa: BLE001 - older NumPy: record what is known
        blas = "unknown"
    try:
        import scipy  # noqa: F401
        has_scipy = True
    except ImportError:
        has_scipy = False
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": has_scipy,
        "blas": blas,
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "kernel.peak_gops": peak,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -------------------------------------------------------------------- setup
def block_workload(workload: Workload):
    config = LlamaConfig(f"{workload.name}-block", workload.hidden,
                         workload.intermediate, 16, 16, 1)
    return llama_block_gemms(
        config.name, sequence_length=workload.columns, weight_bits=WEIGHT_BITS,
        activation_bits=ACTIVATION_BITS, config=config,
    )


def setup(workload: Workload, seed: int, pool: np.ndarray, tracer: Tracer):
    """Compile, start the server and warm it up; returns plan, server, seconds."""
    start = time.perf_counter()
    with tracer.span("setup") as root:
        with tracer.span("compile_workload", parent=root):
            plan = compile_workload(
                block_workload(workload), graph="chain",
                accelerator=TransitiveArrayAccelerator(), seed=seed,
            )
        with tracer.span("server.start", parent=root):
            server = Server(plan, num_workers=NUM_WORKERS, max_batch=MAX_BATCH,
                            max_pending=MAX_PENDING).start()
        with tracer.span("warmup", parent=root):
            warm = [server.submit(request_input(pool, workload, -1 - i))
                    for i in range(workload.in_flight)]
            for handle in warm:
                handle.result(timeout=600.0)
    return plan, server, time.perf_counter() - start


def model_stats(plan) -> Dict[str, float]:
    """Simulated cycles of every stage, from the profiles compiled with it."""
    dense = DenseInt8Accelerator()
    stats: Dict[str, float] = {}
    for stage in STAGES:
        layer = plan.layer(stage)
        profile = layer.profile
        stats[f"model.{stage}.cycles"] = profile.cycles
        stats[f"model.{stage}.compute_cycles"] = profile.compute_cycles
        stats[f"model.{stage}.dram_cycles"] = profile.dram_cycles
        stats[f"model.{stage}.speedup_over_dense"] = (
            dense.simulate(layer.shape).cycles / profile.cycles
        )
    return stats


def check_model_record(workload: Workload, seed: int, stats: Dict[str, float]) -> List[str]:
    """Compare simulated statistics with those an earlier run of this seed
    recorded; the first run records them."""
    path = OUT_DIR / f"model-{workload.name}-seed{seed}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        return [
            f"{name} = {stats.get(name)} differs from the recorded {value}"
            for name, value in recorded.items() if stats.get(name) != value
        ]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n")
    return []


# ------------------------------------------------------------------- window
class Window:
    """The requests one measured window sent, by phase."""

    def __init__(self) -> None:
        self.closed: List[Sent] = []
        self.open: List[Sent] = []
        #: Closed-loop requests sent before this instant are not measured.
        self.ramp_end = 0.0
        self.sessions = 0
        self.wall_s = 0.0

    @property
    def sent(self) -> List[Sent]:
        return self.closed + self.open

    @property
    def measured(self) -> List[Sent]:
        """Closed-loop requests sent after the ramp."""
        return [s for s in self.closed if s.sent >= self.ramp_end]


def measure(gen: Generator, workload: Workload, seed: int, seconds: float,
            tracer: Tracer) -> Window:
    window = Window()
    window.sessions = workload.in_flight
    start = time.perf_counter()
    with tracer.span("window"):
        closed_s = seconds * PHASE_A_SHARE if workload.overload else seconds
        window.closed, start_closed = gen.closed_loop(workload.in_flight, closed_s)
        window.ramp_end = start_closed + RAMP_SHARE * closed_s
        if workload.overload:
            capacity = closed_rate(window)
            schedule = overload_schedule(seed, capacity, seconds - closed_s)
            window.open, _ = gen.open_loop(schedule)
    window.wall_s = time.perf_counter() - start
    return window


def closed_rate(window: Window) -> float:
    """Completed requests per second of closed-loop session time, after the
    ramp (exact ones, once the oracle has run).

    Each session's time runs from the window start to its last reply, so
    neither the fill nor the drain of the loop distorts the rate.
    """
    done = [s for s in window.measured if s.outcome == "done"]
    # A session's request cycles (due -> reply) tile its timeline, so their
    # sum is the total session time.
    session_s = sum(s.finished - s.due for s in done)
    return len(done) * window.sessions / session_s if session_s > 0 else 0.0


# ------------------------------------------------------------------- oracle
def verify(plan, workload: Workload, pool: np.ndarray, records: Sequence[Sent],
           tracer: Tracer) -> ChainOracle:
    """Mark every served output the exact oracle rejects as ``wrong``."""
    oracle = ChainOracle([plan.layer(stage).weight for stage in STAGES])
    blocks = pool.shape[1] // workload.columns
    by_block: Dict[int, List[Sent]] = {}
    for record in records:
        if record.outcome == "done":
            by_block.setdefault(record.index % blocks, []).append(record)
    keys = sorted(by_block)
    chunk = max(1, 1024 // workload.columns)
    with tracer.span("oracle"):
        for offset in range(0, len(keys), chunk):
            part = keys[offset:offset + chunk]
            x = np.concatenate([request_input(pool, workload, k) for k in part], axis=1)
            exact = oracle.run(x)[-1]
            for position, key in enumerate(part):
                cols = slice(position * workload.columns, (position + 1) * workload.columns)
                for record in by_block[key]:
                    if not matches(record.digest, exact[:, cols]):
                        record.outcome = "wrong"
    return oracle


# ------------------------------------------------------------------ metrics
def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def e2e_metrics(window: Window, workload: Workload) -> Dict[str, float]:
    closed = [s for s in window.measured if s.outcome == "done"]
    latencies_ms = [(s.finished - s.sent) * 1e3 for s in closed]
    sent = window.sent
    p0 = [s for s in sent if s.priority == 0]
    throughput = closed_rate(window)
    return {
        "throughput_rps": throughput,
        "columns_per_s": throughput * workload.columns,
        "latency_p50_ms": percentile(latencies_ms, 50.0),
        "latency_p90_ms": percentile(latencies_ms, 90.0),
        "latency_p99_ms": percentile(latencies_ms, 99.0),
        "p0_deadline_met_share": sum(s.deadline_met for s in p0) / max(1, len(p0)),
        "completed_share": sum(s.outcome == "done" for s in sent) / max(1, len(sent)),
    }


def outcome_shares(records: Sequence[Sent]) -> Dict[str, float]:
    total = max(1, len(records))
    return {
        "shed_share": sum(s.outcome in ("refused", "shed") for s in records) / total,
        "failed_share": sum(s.outcome in ("failed", "wrong") for s in records) / total,
    }


def _field(obj, name: str):
    """Tolerant read of a report/stats field: missing means no metric."""
    return getattr(obj, name, None) if obj is not None else None


def serving_delta(before, after, window: Window, workload: Workload, plan,
                  peak: float):
    """Serving, kernel-utilization and admission metrics of one window, from
    the difference of the server reports taken around it.  Also returns each
    stage's mean batch width in requests."""
    metrics: Dict[str, float] = {}
    widths: Dict[str, float] = {}
    old_stages = {_field(s, "layer"): s for s in _field(before, "stages") or ()}
    new_stages = {_field(s, "layer"): s for s in _field(after, "stages") or ()}

    def diff(stage: str, name: str) -> Optional[float]:
        new = _field(new_stages.get(stage), name)
        old = _field(old_stages.get(stage), name)
        return None if new is None else new - (old or 0)

    compute_total = ops_total = 0.0
    requests_total = batches_total = 0
    for stage in STAGES:
        requests, batches = diff(stage, "requests"), diff(stage, "batches")
        compute, waits = diff(stage, "compute_s"), None
        if requests is not None and _field(new_stages.get(stage), "queue_wait_mean_s") is not None:
            waits = sum(
                (_field(s, "queue_wait_mean_s") or 0.0) * (_field(s, "requests") or 0)
                * sign for s, sign in ((new_stages.get(stage), 1), (old_stages.get(stage), -1))
            )
        if batches is not None:
            metrics[f"serve.{stage}.batches"] = batches
        if compute is not None:
            metrics[f"serve.{stage}.compute_s"] = compute
        if waits is not None and requests:
            metrics[f"serve.{stage}.queue_wait_ms"] = waits / requests * 1e3
        if requests is None or not batches:
            continue
        widths[stage] = requests / batches
        requests_total += requests
        batches_total += batches
        if compute is not None:
            shape = plan.layer(stage).shape
            ops_total += 2.0 * shape.n * shape.k * requests * workload.columns
            compute_total += compute
    if batches_total:
        metrics["serve.mean_batch_size"] = requests_total / batches_total
    if compute_total > 0:
        metrics["serve.orchestration_share"] = 1.0 - compute_total / (NUM_WORKERS * window.wall_s)
        metrics["kernel.utilization"] = ops_total / compute_total / (peak * 1e9)
    for metric, name in (("admit.admission_shed", "num_admission_shed"),
                         ("admit.claim_shed", "num_shed"),
                         ("admit.expired", "num_expired"),
                         ("admit.breaker_trips", "breaker_trips")):
        old, new = _field(before, name), _field(after, name)
        if old is not None and new is not None:
            metrics[metric] = new - old
    return metrics, widths


def compile_metrics(plan, tracer: Tracer):
    """Per-stage plan and profile seconds, the compiled kernels' size, and
    each stage's simulated statistics re-derived by a fresh simulation."""
    metrics: Dict[str, float] = {}
    resimulated: Dict[str, float] = {}
    accelerator = TransitiveArrayAccelerator()
    for stage in STAGES:
        layer = plan.layer(stage)
        engine = TransitiveGemmEngine()
        with tracer.span(f"compile.{stage}.engine.plan"):
            start = time.perf_counter()
            engine.plan(layer.weight, layer.shape.weight_bits)
            metrics[f"compile.{stage}.plan_s"] = time.perf_counter() - start
        del engine
        gc.collect()
        with tracer.span(f"compile.{stage}.simulate_gemm"):
            start = time.perf_counter()
            profile = accelerator.simulate_gemm(layer.shape)
            metrics[f"compile.{stage}.profile_s"] = time.perf_counter() - start
        resimulated[f"model.{stage}.cycles"] = profile.cycles
        resimulated[f"model.{stage}.compute_cycles"] = profile.compute_cycles
        resimulated[f"model.{stage}.dram_cycles"] = profile.dram_cycles
    stats = _field(plan, "compile_stats")
    lowering_s = _field(stats, "lowering_s")
    kernel_bytes = _field(stats, "kernel_bytes")
    if lowering_s is not None:
        metrics["compile.lowering_s"] = lowering_s
    if kernel_bytes is not None:
        metrics["compile.kernel_mb"] = kernel_bytes / 1e6
    return metrics, resimulated


def kernel_metrics(plan, workload: Workload, x: np.ndarray, oracle: ChainOracle,
                   widths: Dict[str, float], tracer: Tracer) -> Dict[str, float]:
    """Time ``plan.run_batch`` on each stage at the window's mean batch width,
    fed with that stage's real (exact) input for activation ``x``."""
    metrics: Dict[str, float] = {}
    inputs = [x] + oracle.run(x)[:-1]
    for stage, activation in zip(STAGES, inputs):
        if stage not in widths or activation.dtype == object:
            continue
        width = max(1, int(round(widths[stage])))
        batch = [activation] * width
        plan.run_batch(stage, batch)
        times = []
        with tracer.span(f"kernel.{stage}.run_batch"):
            began = time.perf_counter()
            while len(times) < 5 or (len(times) < 50 and time.perf_counter() - began < 0.5):
                start = time.perf_counter()
                plan.run_batch(stage, batch)
                times.append(time.perf_counter() - start)
        seconds = statistics.median(times)
        shape = plan.layer(stage).shape
        metrics[f"kernel.{stage}.ms_per_batch"] = seconds * 1e3
        metrics[f"kernel.{stage}.gops"] = (
            2.0 * shape.n * shape.k * width * workload.columns / seconds / 1e9
        )
    return metrics


def model_problems(label: str, reference: Dict[str, float],
                   other: Dict[str, float]) -> List[str]:
    return [f"{name}: {reference[name]} vs {other.get(name)} ({label})"
            for name in reference if name in other and other[name] != reference[name]]


# --------------------------------------------------------------------- runs
def run_untraced(workload: Workload, seed: int, seconds: float, peak: float):
    """Set up ``SETUP_REPEATS`` times, then measure one window, tracing off."""
    pool = input_pool(workload, seed, seconds)
    tracer = Tracer(False)
    setup_times: List[float] = []
    problems: List[str] = []
    server = None
    reference: Optional[Dict[str, float]] = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
            plan = server = None
            gc.collect()  # free the last plan's kernels before compiling again
        plan, server, setup_s = setup(workload, seed, pool, tracer)
        setup_times.append(setup_s)
        stats = model_stats(plan)
        if reference is None:
            reference = stats
        problems += model_problems("between set-ups", reference, stats)
    problems += check_model_record(workload, seed, reference)
    window = measure(Generator(server, workload, pool, tracer), workload, seed,
                     seconds, tracer)
    rss = peak_rss_mb()
    server.close()
    oracle = verify(plan, workload, pool, window.sent, tracer)
    metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": rss}
    metrics.update(e2e_metrics(window, workload))
    extra = {"setup_s_all": setup_times, **outcome_shares(window.sent),
             "latency_p90_ms": metrics["latency_p90_ms"],
             "latency_p99_ms": metrics["latency_p99_ms"],
             "oracle_columns": oracle.columns_by_dtype}
    return metrics, window.sent, problems, extra, tracer


def run_traced(workload: Workload, seed: int, seconds: float, peak: float):
    """One set-up, an untraced and a traced window of half the seconds each,
    then the ledger."""
    pool = input_pool(workload, seed, seconds)
    tracer = Tracer(True)
    plan, server, _ = setup(workload, seed, pool, tracer)
    gen = Generator(server, workload, pool, Tracer(False))
    untraced = measure(gen, workload, seed, seconds / 2, gen.tracer)
    before = server.report()
    gen.tracer = tracer
    traced = measure(gen, workload, seed, seconds / 2, tracer)
    after = server.report()
    server.close()
    oracle = verify(plan, workload, pool, untraced.sent + traced.sent, tracer)

    metrics: Dict[str, float] = {"kernel.peak_gops": peak}
    serving, widths = serving_delta(before, after, traced, workload, plan, peak)
    metrics.update(serving)
    compiled, resimulated = compile_metrics(plan, tracer)
    metrics.update(compiled)
    first = next((s for s in traced.closed if s.outcome == "done"), None)
    if first is not None:
        metrics.update(kernel_metrics(
            plan, workload, request_input(pool, workload, first.index), oracle,
            widths, tracer))
    model = model_stats(plan)
    metrics.update(model)
    problems = model_problems("compiled vs re-simulated", model, resimulated)
    problems += check_model_record(workload, seed, model)

    records = traced.sent
    p1 = [s for s in records if s.priority == 1]
    metrics["admit.p1_served_share"] = (
        sum(s.outcome == "done" for s in p1) / len(p1) if p1 else 1.0)
    metrics["admit.shed_share"] = outcome_shares(records)["shed_share"]
    metrics["gen.lag_p99_ms"] = percentile([s.lag_s * 1e3 for s in records], 99.0)
    submit_us = [d * 1e6 for d in tracer.durations("server.submit")]
    metrics["serve.submit_us_p50"] = percentile(submit_us, 50.0)
    base, with_trace = e2e_metrics(untraced, workload), e2e_metrics(traced, workload)
    metrics["trace.throughput_ratio"] = with_trace["throughput_rps"] / base["throughput_rps"]
    metrics["trace.latency_p50_ratio"] = with_trace["latency_p50_ms"] / base["latency_p50_ms"]
    extra = {"untraced": base, "traced": with_trace, **outcome_shares(records),
             "oracle_columns": oracle.columns_by_dtype}
    return metrics, untraced.sent + traced.sent, problems, extra, tracer


# --------------------------------------------------------------------- main
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    peak = peak_gops()
    fingerprint = machine_fingerprint(peak)
    run = run_traced if args.trace else run_untraced
    metrics, records, problems, extra, tracer = run(
        workload, args.seed, args.seconds, peak)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: value for name, value in metrics.items()
               if name in units and np.isfinite(value)}
    wrong = sum(s.outcome == "wrong" for s in records)
    failed = sum(s.outcome in ("failed", "wrong") for s in records)
    correct = wrong == 0 and not problems

    print(f"fingerprint: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"workload {workload.name}: {workload.why}")
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"  {name:34s} {'missing' if value is None else repr(value)} {unit}")
    for name in ("shed_share", "failed_share"):
        print(f"  {name:34s} {extra[name]!r} share")
    for name in ("latency_p90_ms", "latency_p99_ms"):
        if name in extra:
            print(f"  {name:34s} {extra[name]!r} ms (not gated)")
    for problem in problems:
        print(f"  simulated statistics differ: {problem}")
    if wrong:
        print(f"  oracle rejected {wrong} outputs")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint, "metrics": metrics,
        "extra": extra, "problems": problems, "spans": tracer.spans,
    }
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
