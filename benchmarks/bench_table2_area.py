"""Table 2: compute-core and buffer area of the TransArray and the baselines."""

import blas_env  # noqa: F401 - pins BLAS threads before NumPy loads

from repro.analysis import format_table
from repro.energy import baseline_area_report, transarray_area_report


def _areas():
    return transarray_area_report(), baseline_area_report()


def test_table2_area_comparison(run_once):
    transarray, baselines = run_once(_areas)
    rows = [
        (transarray.name, transarray.core_mm2, transarray.buffer_kb, transarray.total_mm2)
    ]
    rows += [
        (report.name, report.core_mm2, report.buffer_kb, report.total_mm2)
        for report in baselines.values()
    ]
    print("\nTable 2: core area (mm^2) and buffer capacity (KB) at 28 nm")
    print(format_table(["architecture", "core mm^2", "buffer KB", "total mm^2"], rows,
                       float_format="{:.3f}"))

    # Paper Table 2: the TransArray compute core (0.443 mm^2) is smaller than
    # every baseline core (0.473-0.491 mm^2) despite including NoC + scoreboard,
    # and it is provisioned with a smaller buffer (480 KB vs 512/608 KB).
    assert transarray.core_mm2 < min(r.core_mm2 for r in baselines.values())
    assert abs(transarray.core_mm2 - 0.443) / 0.443 < 0.15
    assert transarray.buffer_kb == 480.0
    assert all(r.buffer_kb >= 512.0 for r in baselines.values())
