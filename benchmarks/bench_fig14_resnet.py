"""Fig. 14: per-layer ResNet-18 speedups of BitFusion, ANT and TransArray."""

import blas_env  # noqa: F401 - pins BLAS threads before NumPy loads

from repro.analysis import format_table, resnet_comparison
from repro.analysis.comparison import geomean_speedup


def test_fig14_resnet18_speedups(run_once):
    rows = run_once(resnet_comparison, samples_per_gemm=4)
    table = [
        (r.workload, r.accelerator, r.cycles, r.speedup)
        for r in sorted(rows, key=lambda r: (r.workload, r.accelerator))
    ]
    print("\nFig 14: ResNet-18 per-layer speedup over BitFusion")
    print(format_table(["layer", "accelerator", "cycles", "speedup"], table))

    ta = geomean_speedup(rows, "transarray")
    ant = geomean_speedup(rows, "ant")
    print(f"\nGeomean over layers: TransArray={ta:.2f}x ANT={ant:.2f}x "
          f"(paper totals: 4.26x, 1.93x)")
    # Paper: TransArray ~4.26x over BitFusion and ~2.21x over ANT on ResNet-18.
    # The per-layer geomean here is pulled down by the tiny final classifier
    # (m = 1), which the paper's total-runtime aggregation weights far less.
    assert ta > ant > 1.0
    assert 1.8 <= ta <= 6.5
    assert 1.2 <= ta / ant <= 3.5
