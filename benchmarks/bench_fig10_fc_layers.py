#!/usr/bin/env python
"""Fig. 10: runtime and energy on the FC layers of the LLaMA models.

Regenerates the two panels (normalised speedup and normalised energy
efficiency) for BitFusion, ANT, Olive, Tender, BitVert and the TransArray at
8-bit and 4-bit weights, plus the headline geometric-mean ratios quoted in the
abstract (TA-4bit ~7.5x / ~4x over Olive / BitVert, TA-8bit ~3.75x / ~2x).

Two scales share the harness (``--scale``), the first paper-table bench on
the repo-wide two-tier pattern (see ``bench_perf_gemm.py``):

* ``full`` (default) — three LLaMA models at the paper's sequence length
  (2048) with 6 sampled GEMMs per layer; writes ``BENCH_fig10_fc_layers.json``;
* ``smoke`` — one model (llama1-7b) at sequence length 512 with 2 samples
  per GEMM; writes ``BENCH_fig10_fc_layers_smoke.json`` in seconds.

``--check`` gates the fresh run: the paper's headline bands (per scale) and
a drift bound against the checked-in baseline JSON of the same scale — the
simulators are deterministic, so any geomean moving more than a few percent
means a model change that must be re-baselined deliberately.

Run as a script (``python benchmarks/bench_fig10_fc_layers.py [--scale smoke]
[--check]``) or through pytest (``pytest benchmarks/bench_fig10_fc_layers.py``,
full scale).
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import blas_env  # noqa: E402 - pins BLAS threads before NumPy loads

from repro.analysis import fc_layer_comparison, format_table, geomean  # noqa: E402
from repro.analysis.comparison import geomean_speedup  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A smaller model subset keeps the full bench under a minute; the complete
#: list of seven models is available through examples/llama_fc_layer.py.
MODELS = ("llama1-7b", "llama2-7b", "llama3-8b")

#: Per-scale scenario parameters plus the headline bands the paper quotes.
#: The smoke bands are wider: one model and 2 samples per GEMM shift the
#: geomeans slightly from the three-model full-scale figures.
SCALES = {
    "full": {
        "suffix": "",
        "models": MODELS,
        "sequence_length": 2048,
        "samples_per_gemm": 6,
        "bands": {
            "ta4_speedup": (6.0, 9.0),
            "ta8_speedup": (3.0, 4.5),
            "bitvert_speedup": (1.5, 2.4),
            "ta4_energy": (1.7, 3.0),
        },
    },
    "smoke": {
        "suffix": "_smoke",
        "models": ("llama1-7b",),
        "sequence_length": 512,
        "samples_per_gemm": 2,
        "bands": {
            "ta4_speedup": (5.5, 9.5),
            "ta8_speedup": (2.8, 4.8),
            "bitvert_speedup": (1.4, 2.5),
            "ta4_energy": (1.5, 3.2),
        },
    },
}
#: Drift bound vs the checked-in baseline: the comparison is a deterministic
#: simulation, so geomeans moving more than this fraction in either direction
#: signal an (intentional or not) model change.
DRIFT_FACTOR = 0.05

#: The accelerators whose geomeans are recorded and drift-checked.
ACCELERATORS = (
    "bitfusion", "ant", "tender", "bitvert", "transarray-8bit",
    "transarray-4bit",
)


def output_path(scale: str) -> Path:
    return REPO_ROOT / f"BENCH_fig10_fc_layers{SCALES[scale]['suffix']}.json"


def run(scale: str = "full", write: bool = True) -> dict:
    config = SCALES[scale]
    start = time.perf_counter()
    rows = fc_layer_comparison(
        models=config["models"],
        sequence_length=config["sequence_length"],
        samples_per_gemm=config["samples_per_gemm"],
    )
    wall_s = time.perf_counter() - start
    results = {
        "benchmark": "bench_fig10_fc_layers",
        "blas_threads_env": blas_env.blas_threads_env(),
        "scale": scale,
        "models": list(config["models"]),
        "sequence_length": config["sequence_length"],
        "samples_per_gemm": config["samples_per_gemm"],
        "reference": "olive",
        "wall_s": wall_s,
        "rows": [
            {
                "workload": r.workload,
                "accelerator": r.accelerator,
                "cycles": r.cycles,
                "energy_nj": r.energy_nj,
                "speedup": r.speedup,
                "energy_efficiency": r.energy_efficiency,
            }
            for r in sorted(rows, key=lambda r: (r.workload, r.accelerator))
        ],
        "geomean_speedup": {
            name: geomean_speedup(rows, name) for name in ACCELERATORS
        },
        "geomean_energy_efficiency": {
            name: geomean(
                [r.energy_efficiency for r in rows if r.accelerator == name]
            )
            for name in ACCELERATORS
        },
    }
    if write:
        output_path(scale).write_text(json.dumps(results, indent=2) + "\n")
    return results


def check(scale: str, results: dict, baseline: dict) -> list:
    """Gate a fresh run: headline bands + drift vs the baseline JSON."""
    failures = []
    speedups = results["geomean_speedup"]
    headline = {
        "ta4_speedup": speedups["transarray-4bit"],
        "ta8_speedup": speedups["transarray-8bit"],
        "bitvert_speedup": speedups["bitvert"],
        "ta4_energy": results["geomean_energy_efficiency"]["transarray-4bit"],
    }
    for metric, value in headline.items():
        low, high = SCALES[scale]["bands"][metric]
        if not low <= value <= high:
            failures.append(
                f"{metric} geomean {value:.2f}x is outside the paper band "
                f"[{low:.1f}, {high:.1f}]"
            )
    ordering = [
        speedups["transarray-4bit"], speedups["transarray-8bit"],
        speedups["bitvert"], speedups["ant"], 1.0,
    ]
    if ordering != sorted(ordering, reverse=True):
        failures.append(
            "speedup ordering broken: expected TA-4bit > TA-8bit > BitVert "
            f"> ANT > Olive, got {[f'{v:.2f}' for v in ordering]}"
        )
    for section in ("geomean_speedup", "geomean_energy_efficiency"):
        for name, value in results[section].items():
            baseline_value = baseline.get(section, {}).get(name)
            if baseline_value is None:
                continue
            drift = abs(value - baseline_value) / baseline_value
            if drift > DRIFT_FACTOR:
                failures.append(
                    f"{section}[{name}] drifted {drift:.1%} from the "
                    f"baseline ({value:.3f} vs {baseline_value:.3f}); the "
                    "simulators are deterministic — re-baseline deliberately"
                )
    return failures


def _print_results(scale: str, results: dict) -> None:
    table = [
        (r["workload"], r["accelerator"], r["cycles"], r["speedup"],
         r["energy_efficiency"])
        for r in results["rows"]
    ]
    print(f"\n[{scale}] Fig 10: FC-layer cycles, speedup and energy "
          "efficiency (vs Olive)")
    print(format_table(
        ["model", "accelerator", "cycles", "speedup", "energy eff."], table
    ))
    speedups = results["geomean_speedup"]
    print(f"\nGeomean speedup over Olive: "
          f"TA-4bit={speedups['transarray-4bit']:.2f}x "
          f"TA-8bit={speedups['transarray-8bit']:.2f}x "
          f"BitVert={speedups['bitvert']:.2f}x ANT={speedups['ant']:.2f}x")
    ta4_energy = results["geomean_energy_efficiency"]["transarray-4bit"]
    print(f"Geomean energy reduction of TA-4bit over Olive: {ta4_energy:.2f}x")


def test_fig10_fc_layer_speedup_and_energy(run_once):
    results = run_once(run, scale="full", write=True)
    _print_results("full", results)

    speedups = results["geomean_speedup"]
    ta4 = speedups["transarray-4bit"]
    ta8 = speedups["transarray-8bit"]
    bitvert = speedups["bitvert"]
    ant = speedups["ant"]
    ta4_energy = results["geomean_energy_efficiency"]["transarray-4bit"]

    # Paper: ~7.46x (speedup) and ~2.31x (energy) for TA-4bit vs Olive;
    # ~3.75x for TA-8bit vs Olive; BitVert ~1.9x over Olive.
    assert 6.0 <= ta4 <= 9.0
    assert 3.0 <= ta8 <= 4.5
    assert 1.5 <= bitvert <= 2.4
    assert 1.7 <= ta4_energy <= 3.0
    # Ordering: TA-4bit > TA-8bit > BitVert > ANT > Olive (reference = 1).
    assert ta4 > ta8 > bitvert > ant > 1.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="paper-sized scenario (full) or CI-sized scenario (smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the fresh run against the paper's headline bands and the "
             "checked-in baseline JSON; exit non-zero on failure",
    )
    args = parser.parse_args()
    baseline = {}
    if args.check and output_path(args.scale).exists():
        baseline = json.loads(output_path(args.scale).read_text())
    results = run(scale=args.scale, write=True)
    _print_results(args.scale, results)
    print(f"wrote {output_path(args.scale)}")
    if args.check:
        failures = check(args.scale, results, baseline)
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        if failures:
            raise SystemExit(1)
        print(f"[{args.scale}] all Fig. 10 gates passed")


if __name__ == "__main__":
    main()
