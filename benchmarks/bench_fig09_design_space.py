"""Fig. 9: design-space exploration of TranSparsity on a random 0/1 matrix.

Regenerates the four panels: (a) overall density vs tiling row size per
TransRow width, (b) node-type shares vs width, (c) node-type shares vs row
size for 8-bit, (d) prefix-distance histogram vs row size.
"""

import blas_env  # noqa: F401 - pins BLAS threads before NumPy loads

from repro.analysis import (
    density_vs_row_size,
    distance_histogram,
    node_type_vs_bitwidth,
    node_type_vs_row_size,
    format_table,
)

MATRIX_SIZE = 512
ROW_SIZES = (16, 32, 64, 128, 256, 512)
BIT_WIDTHS = (2, 4, 6, 8, 10, 12)


def test_fig9a_density_vs_row_size(run_once):
    points = run_once(
        density_vs_row_size,
        bit_widths=BIT_WIDTHS,
        row_sizes=ROW_SIZES,
        matrix_size=MATRIX_SIZE,
        max_tiles=4,
    )
    rows = [
        (p.bit_width, p.row_size, 100.0 * p.density, 100.0 * p.bit_density)
        for p in points
    ]
    print("\nFig 9(a): overall density (%) vs tiling row size")
    print(format_table(["T (bits)", "row size", "density %", "bit density %"], rows))
    # The paper's qualitative result: 8-bit reaches the ~12.5 % floor at 256 rows.
    best_8bit = min(p.density for p in points if p.bit_width == 8)
    assert 0.12 <= best_8bit <= 0.16
    best_4bit = min(p.density for p in points if p.bit_width == 4)
    assert 0.22 <= best_4bit <= 0.26


def test_fig9b_node_type_vs_bitwidth(run_once):
    shares = run_once(
        node_type_vs_bitwidth, bit_widths=BIT_WIDTHS, row_size=256, matrix_size=MATRIX_SIZE
    )
    rows = [
        (width, s["ZR"], s["TR"], s["FR"], s["PR"]) for width, s in sorted(shares.items())
    ]
    print("\nFig 9(b): node-type share (%) vs TranSparsity bit width (row size 256)")
    print(format_table(["T (bits)", "ZR %", "TR %", "FR %", "PR %"], rows))
    # FR dominates at small widths, PR takes over beyond 8 bits.
    assert shares[2]["FR"] > shares[2]["PR"]
    assert shares[12]["PR"] > shares[12]["FR"]


def test_fig9c_node_type_vs_row_size(run_once):
    shares = run_once(node_type_vs_row_size, row_sizes=ROW_SIZES, matrix_size=MATRIX_SIZE)
    rows = [
        (row_size, s["ZR"], s["TR"], s["FR"], s["PR"])
        for row_size, s in sorted(shares.items())
    ]
    print("\nFig 9(c): node-type share (%) vs tiling row size (8-bit TranSparsity)")
    print(format_table(["row size", "ZR %", "TR %", "FR %", "PR %"], rows))
    # Larger tiles capture more of the Hasse graph: FR (duplicates) grows.
    assert shares[ROW_SIZES[-1]]["FR"] > shares[ROW_SIZES[0]]["FR"]


def test_fig9d_distance_histogram(run_once):
    histograms = run_once(
        distance_histogram, row_sizes=ROW_SIZES, matrix_size=MATRIX_SIZE, max_tiles=4
    )
    distances = sorted({d for hist in histograms.values() for d in hist})
    rows = [
        [row_size] + [hist.get(d, 0) for d in distances]
        for row_size, hist in sorted(histograms.items())
    ]
    print("\nFig 9(d): present-node count per prefix distance vs tiling row size")
    print(format_table(["row size"] + [f"dis-{d}" for d in distances], rows))
    # Larger tiles have denser node populations, hence shorter distances.
    large = histograms[ROW_SIZES[-1]]
    small = histograms[ROW_SIZES[0]]
    large_share = large.get(1, 0) / max(1, sum(large.values()))
    small_share = small.get(1, 0) / max(1, sum(small.values()))
    assert large_share >= small_share
