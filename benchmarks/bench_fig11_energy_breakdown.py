"""Fig. 11: TransArray energy breakdown on the LLaMA-1-7B first FC layer."""

import blas_env  # noqa: F401 - pins BLAS threads before NumPy loads

from repro.transarray import TransitiveArrayAccelerator
from repro.workloads import llama_fc_gemms
from repro.analysis import format_table


def _breakdown():
    workload = llama_fc_gemms("llama1-7b", sequence_length=2048, weight_bits=4)
    first_fc = workload.gemms[0]
    accelerator = TransitiveArrayAccelerator(samples_per_gemm=6)
    profile = accelerator.simulate_gemm(first_fc)
    return profile.energy


def test_fig11_energy_breakdown(run_once):
    energy = run_once(_breakdown)
    shares = energy.percentages()
    rows = sorted(shares.items(), key=lambda item: -item[1])
    print("\nFig 11: TransArray energy breakdown on LLaMA-1-7B first FC layer (%)")
    print(format_table(["component", "share %"], rows))

    buffer_share = sum(
        shares[name]
        for name in ("weight_buffer", "input_buffer", "prefix_buffer", "output_buffer",
                     "other_buffer")
    )
    # Paper: buffers dominate (~56 %), the prefix buffer is the largest buffer
    # consumer (~29 %), the core is a small slice (~13 %).
    assert buffer_share > 40.0
    assert shares["prefix_buffer"] == max(
        shares["weight_buffer"], shares["input_buffer"],
        shares["prefix_buffer"], shares["output_buffer"],
    )
    assert shares["core"] < buffer_share
