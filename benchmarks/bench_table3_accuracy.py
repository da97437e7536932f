"""Table 3: proxy WikiText perplexity of every quantization scheme.

Absolute values come from the documented proxy (quantization-induced layer
output error mapped onto the published FP16 anchors); the assertions check the
qualitative structure of the paper's table.
"""

import blas_env  # noqa: F401 - pins BLAS threads before NumPy loads

from repro.analysis import format_table
from repro.quant import perplexity_table
from repro.quant.accuracy import FP16_PERPLEXITY, perplexity_grid

MODELS = ("llama1-7b", "llama1-13b", "llama2-7b", "llama3-8b")


def test_table3_perplexity_proxy(run_once):
    entries = run_once(perplexity_table, models=list(MODELS), rows=192, cols=768, tokens=48)
    grid = perplexity_grid(entries)
    schemes = sorted({e.scheme for e in entries})
    rows = [
        [model] + [grid[model][scheme] for scheme in schemes] + [FP16_PERPLEXITY[model]]
        for model in MODELS
    ]
    print("\nTable 3: proxy perplexity (lower is better)")
    print(format_table(["model"] + schemes + ["fp16"], rows))

    for model in MODELS:
        row = grid[model]
        fp16 = FP16_PERPLEXITY[model]
        # Tender-4 collapses; every 8-bit outlier-aware / group-wise scheme is
        # near-lossless; the TransArray INT8 column matches ANT.
        assert row["tender-4"] > 2.0 * fp16
        assert row["transarray-int8"] < 1.1 * fp16
        assert row["ant-8"] < 1.1 * fp16
        assert row["bitvert-8"] < 1.15 * fp16
        assert row["transarray-int8"] <= row["bitfusion-8"]
        assert row["transarray-int4"] < row["tender-4"]
        # Perplexity can never beat the FP16 anchor under the proxy.
        assert all(value >= fp16 for value in row.values())
