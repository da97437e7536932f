#!/usr/bin/env python
"""Wall-clock benchmark of the GEMM fast path and the planned exact-BLAS path.

Two measurements anchor the performance trajectory of the engine:

* ``speedup_1024``: fast path vs the scalar oracle (T=8, 4-bit weights) —
  the acceptance gate is a >= 10x speedup;
* ``llama_fc_4096``: the fast path and the compiled plan on a LLaMA-7B-style
  FC layer (8-bit weights): cold, warm static-scoreboard cache, plan compile
  time split into scoreboard and kernel-build seconds, the interpreted
  planned path, and the planned path through ``exact_matmul`` (the serving
  hot path).  The planned gate asserts the exact-BLAS kernel beats the
  interpreted planned path;
* ``column_sweep``: float32 vs float64 BLAS product time over 1-256 columns
  on the same layer's weights, the measurement behind ``exact_matmul``'s
  choice between float32 and float64 limbs (recorded, not gated).

Two scales share the harness (``--scale``):

* ``full`` (default) — the paper-sized shapes (1024x1024x16 scalar-vs-fast,
  4096x4096x16 FC layer); writes ``BENCH_perf_gemm.json``;
* ``smoke`` — the same scenario at CI size (256x256x16 and 512x512x16);
  writes ``BENCH_perf_gemm_smoke.json`` in seconds instead of minutes.

``--check`` additionally gates the fresh run: absolute floors (fast >= 10x
scalar, planned >= the scale's factor over interpreted) plus a generous
regression bound against the checked-in baseline JSON of the same scale, and
exits non-zero on any failure.  Every result is checked bit-exact against
NumPy at every scale.

Run as a script (``python benchmarks/bench_perf_gemm.py [--scale smoke]
[--check]``) or through pytest (``pytest benchmarks/bench_perf_gemm.py``,
full scale).  BLAS runs on one thread (see ``blas_env.py``).
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import blas_env  # noqa: E402 - pins BLAS threads before NumPy loads

import numpy as np  # noqa: E402

from repro.core import TransitiveGemmEngine  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per-scale scenario parameters; both scales run the identical harness.
SCALES = {
    "full": {
        "suffix": "",
        "speedup_shape": (1024, 1024, 16),
        "llama_shape": (4096, 4096, 16),
        "planned_gate": 3.0,
    },
    "smoke": {
        "suffix": "_smoke",
        "speedup_shape": (256, 256, 16),
        "llama_shape": (512, 512, 16),
        "planned_gate": 2.0,
    },
}
#: Absolute floor: fast path vs the scalar oracle, every scale.
SPEEDUP_GATE = 10.0
#: Activation widths of the float32/float64 column sweep.
SWEEP_COLUMNS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: Regression bound: a fresh speedup may not fall below this fraction of the
#: checked-in baseline's (generous — CI machines vary widely).
REGRESSION_FACTOR = 0.4


def output_path(scale: str) -> Path:
    return REPO_ROOT / f"BENCH_perf_gemm{SCALES[scale]['suffix']}.json"


def _time(func, repeats=1):
    """Best-of-``repeats`` wall-clock time and the (last) function result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _random_gemm(rng, n, k, m, weight_bits):
    lo, hi = -(1 << (weight_bits - 1)), (1 << (weight_bits - 1)) - 1
    weight = rng.integers(lo, hi + 1, size=(n, k), dtype=np.int64)
    activation = rng.integers(-128, 128, size=(k, m), dtype=np.int64)
    return weight, activation


def bench_speedup(shape):
    """Fast vs scalar (T=8, S=4); asserts bit-exactness."""
    n, k, m = shape
    rng = np.random.default_rng(0)
    weight, activation = _random_gemm(rng, n, k, m, weight_bits=4)
    expected = weight @ activation

    fast = TransitiveGemmEngine(transrow_bits=8, max_distance=4, fast=True)
    fast.multiply(weight, activation, 4)  # warm-up: lattice tables + cache fill
    fast_cached_s, report = _time(lambda: fast.multiply(weight, activation, 4),
                                  repeats=3)
    uncached = TransitiveGemmEngine(
        transrow_bits=8, max_distance=4, fast=True, scoreboard_cache_entries=0
    )
    uncached.multiply(weight, activation, 4)  # warm-up without caching
    fast_s, fast_report = _time(lambda: uncached.multiply(weight, activation, 4),
                                repeats=3)

    scalar = TransitiveGemmEngine(transrow_bits=8, max_distance=4, fast=False)
    scalar_s, scalar_report = _time(lambda: scalar.multiply(weight, activation, 4))

    assert np.array_equal(report.output, expected)
    assert np.array_equal(fast_report.output, expected)
    assert np.array_equal(scalar_report.output, expected)
    assert fast_report.op_counts == scalar_report.op_counts
    return {
        "shape": list(shape),
        "transrow_bits": 8,
        "weight_bits": 4,
        "scalar_s": scalar_s,
        "fast_s": fast_s,
        "fast_cached_s": fast_cached_s,
        "speedup": scalar_s / fast_s,
        "speedup_cached": scalar_s / fast_cached_s,
        "density": report.op_counts.density,
    }


def bench_llama_fc(shape):
    """Fast, interpreted-planned and exact-BLAS planned on an FC layer (S=8)."""
    n, k, m = shape
    rng = np.random.default_rng(1)
    weight, activation = _random_gemm(rng, n, k, m, weight_bits=8)
    expected = weight @ activation

    engine = TransitiveGemmEngine(transrow_bits=8, max_distance=4, fast=True)
    cold_s, report = _time(lambda: engine.multiply(weight, activation, 8))
    new_activation = rng.integers(-128, 128, size=(k, m), dtype=np.int64)
    warm_s, warm_report = _time(lambda: engine.multiply(weight, new_activation, 8))

    # The serving path: compile the plan once on a cold engine (scoreboard +
    # kernel build), then time one planned call through exact_matmul and one
    # through the interpreted prefix-reuse walk.
    compiler = TransitiveGemmEngine(transrow_bits=8, max_distance=4, fast=True)
    plan_start = time.perf_counter()
    plan = compiler.plan(weight, 8)
    plan_compile_s = time.perf_counter() - plan_start
    planned_s, planned_report = _time(
        lambda: compiler.multiply_planned(plan, activation), repeats=3
    )
    interpreted_s, interpreted = _time(
        lambda: compiler._interpret_planned(plan, activation), repeats=3
    )

    assert np.array_equal(report.output, expected)
    assert np.array_equal(warm_report.output, weight @ new_activation)
    assert np.array_equal(planned_report.output, expected)
    assert np.array_equal(interpreted, expected)
    assert planned_report.op_counts == report.op_counts
    info = engine.scoreboard_cache_info()
    assert info.hits >= 1
    return {
        "shape": list(shape),
        "transrow_bits": 8,
        "weight_bits": 8,
        "fast_cold_s": cold_s,
        "fast_cached_s": warm_s,
        "plan_compile_s": plan_compile_s,
        "scoreboard_s": plan_compile_s - plan.kernel_build_s,
        "kernel_build_s": plan.kernel_build_s,
        "kernel_bytes": plan.kernel_bytes,
        "planned_s": planned_s,
        "interpreted_planned_s": interpreted_s,
        "planned_speedup_vs_interpreted": interpreted_s / planned_s,
        "total_transrows": report.op_counts.total_transrows,
        "density": report.op_counts.density,
    }


def bench_column_sweep(shape):
    """Best-of-3 float32 and float64 BLAS product time per activation width."""
    n, k, _ = shape
    rng = np.random.default_rng(2)
    weight, activation = _random_gemm(rng, n, k, max(SWEEP_COLUMNS), weight_bits=8)
    sweep = {"shape": [n, k], "columns": list(SWEEP_COLUMNS),
             "float32_s": [], "float64_s": []}
    for dtype, key in ((np.float32, "float32_s"), (np.float64, "float64_s")):
        weight_f = weight.astype(dtype)
        for columns in SWEEP_COLUMNS:
            x = activation[:, :columns].astype(dtype)
            sweep[key].append(_time(lambda: weight_f @ x, repeats=3)[0])
    sweep["float32_over_float64"] = [
        f32 / f64 for f32, f64 in zip(sweep["float32_s"], sweep["float64_s"])
    ]
    return sweep


def run(scale: str = "full", write: bool = True) -> dict:
    config = SCALES[scale]
    results = {
        "benchmark": "bench_perf_gemm",
        "scale": scale,
        "blas_threads_env": blas_env.blas_threads_env(),
        "speedup_1024": bench_speedup(config["speedup_shape"]),
        "llama_fc_4096": bench_llama_fc(config["llama_shape"]),
        "column_sweep": bench_column_sweep(config["llama_shape"]),
    }
    if write:
        output_path(scale).write_text(json.dumps(results, indent=2) + "\n")
    return results


def check(scale: str, results: dict, baseline: dict) -> list:
    """Gate a fresh run: absolute floors + regression vs the baseline JSON."""
    failures = []
    speedup = results["speedup_1024"]["speedup"]
    if speedup < SPEEDUP_GATE:
        failures.append(
            f"fast-path speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_GATE:.0f}x gate"
        )
    planned = results["llama_fc_4096"]["planned_speedup_vs_interpreted"]
    gate = SCALES[scale]["planned_gate"]
    if planned < gate:
        failures.append(
            f"planned-kernel speedup {planned:.2f}x over the interpreted "
            f"planned path is below the {gate:.1f}x gate"
        )
    for metric, fresh_value in (
        ("speedup_1024.speedup", speedup),
        ("llama_fc_4096.planned_speedup_vs_interpreted", planned),
    ):
        section, key = metric.split(".")
        baseline_value = baseline.get(section, {}).get(key)
        if baseline_value is None:
            continue
        floor = REGRESSION_FACTOR * baseline_value
        if fresh_value < floor:
            failures.append(
                f"{metric} regressed: {fresh_value:.2f} vs baseline "
                f"{baseline_value:.2f} (floor {floor:.2f})"
            )
    return failures


def test_fast_path_speedup_over_scalar():
    """Tier-2 gate: >= 10x over scalar and a faster exact-BLAS than
    interpreted planned path at LLM tile size."""
    results = run(scale="full", write=True)
    assert results["speedup_1024"]["speedup"] >= SPEEDUP_GATE
    assert (
        results["llama_fc_4096"]["planned_speedup_vs_interpreted"]
        >= SCALES["full"]["planned_gate"]
    )


def _print_results(scale, results):
    one = results["speedup_1024"]
    llama = results["llama_fc_4096"]
    print(f"[{scale}] {'x'.join(map(str, one['shape']))} (T=8, S=4): "
          f"scalar {one['scalar_s']:.3f}s, "
          f"fast {one['fast_s']:.3f}s ({one['speedup']:.1f}x), "
          f"cached {one['fast_cached_s']:.3f}s ({one['speedup_cached']:.1f}x)")
    print(f"[{scale}] {'x'.join(map(str, llama['shape']))} (T=8, S=8): "
          f"fast cold {llama['fast_cold_s']:.3f}s, "
          f"cached {llama['fast_cached_s']:.3f}s")
    print(f"[{scale}] planned: exact BLAS {llama['planned_s'] * 1e3:.2f} ms "
          f"vs interpreted {llama['interpreted_planned_s'] * 1e3:.2f} ms "
          f"-> {llama['planned_speedup_vs_interpreted']:.2f}x "
          f"(compile: scoreboard {llama['scoreboard_s']:.3f} s, "
          f"kernel build {llama['kernel_build_s'] * 1e3:.1f} ms, "
          f"{llama['kernel_bytes'] / 1024:.0f} KiB float32+float64)")
    sweep = results["column_sweep"]
    print(f"[{scale}] {'x'.join(map(str, sweep['shape']))} BLAS product by "
          f"columns: float32 ms / float64 ms (ratio)")
    for columns, f32, f64, ratio in zip(
        sweep["columns"], sweep["float32_s"], sweep["float64_s"],
        sweep["float32_over_float64"],
    ):
        print(f"  {columns:4d}  {f32 * 1e3:9.3f}  {f64 * 1e3:9.3f}  ({ratio:.2f})")
    print(f"wrote {output_path(scale)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="paper-sized shapes (full) or CI-sized shapes (smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the fresh run against absolute floors and the checked-in "
             "baseline JSON; exit non-zero on failure",
    )
    args = parser.parse_args()
    baseline = {}
    if args.check and output_path(args.scale).exists():
        baseline = json.loads(output_path(args.scale).read_text())
    results = run(scale=args.scale, write=True)
    _print_results(args.scale, results)
    if args.check:
        failures = check(args.scale, results, baseline)
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        if failures:
            raise SystemExit(1)
        print(f"[{args.scale}] all perf gates passed")


if __name__ == "__main__":
    main()
