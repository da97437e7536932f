"""Fig. 13: static vs dynamic scoreboard density on real and random data."""

import blas_env  # noqa: F401 - pins BLAS threads before NumPy loads

from repro.analysis import format_table, scoreboard_density_study

ROW_SIZES = (64, 128, 256, 512)


def test_fig13_static_vs_dynamic_scoreboard(run_once):
    points = run_once(
        scoreboard_density_study,
        row_sizes=ROW_SIZES,
        matrix_rows=512,
        matrix_cols=64,
        max_tiles=4,
    )
    rows = [
        (p.data, p.mode, p.row_size, 100.0 * p.density, 100.0 * p.bit_density,
         p.si_miss_rate)
        for p in sorted(points, key=lambda p: (p.data, p.mode, p.row_size))
    ]
    print("\nFig 13: overall density (%) of static vs dynamic scoreboards")
    print(format_table(
        ["data", "scoreboard", "row size", "density %", "bit density %", "SI misses/tile"],
        rows,
    ))

    def density(data, mode, row_size):
        return next(
            p.density for p in points
            if p.data == data and p.mode == mode and p.row_size == row_size
        )

    # Dynamic beats static at small row sizes; the gap closes at large sizes;
    # both are far below the ~50 % bit-sparsity density.
    for data in ("real", "random"):
        assert density(data, "dynamic", ROW_SIZES[0]) < density(data, "static", ROW_SIZES[0])
        small_gap = density(data, "static", ROW_SIZES[0]) - density(data, "dynamic", ROW_SIZES[0])
        large_gap = density(data, "static", ROW_SIZES[-1]) - density(data, "dynamic", ROW_SIZES[-1])
        assert large_gap <= small_gap
        assert density(data, "static", ROW_SIZES[0]) < 0.40
