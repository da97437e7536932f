"""Integration tests: TransArray unit execution and accelerator-level simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TransArrayConfig
from repro.errors import SimulationError
from repro.scoreboard import StaticScoreboard
from repro.transarray import TransArrayUnit, TransitiveArrayAccelerator
from repro.workloads import GemmShape, GemmWorkload


class TestUnitFunctional:
    def test_subtile_execution_is_bit_exact(self):
        rng = np.random.default_rng(0)
        unit = TransArrayUnit()
        weight = rng.integers(-128, 128, size=(32, 8), dtype=np.int64)
        act = rng.integers(-128, 128, size=(8, 32), dtype=np.int64)
        np.testing.assert_array_equal(unit.execute_subtile(weight, act, 8), weight @ act)

    def test_4bit_weights_double_tile_height(self):
        rng = np.random.default_rng(1)
        unit = TransArrayUnit()
        weight = rng.integers(-8, 8, size=(64, 8), dtype=np.int64)
        act = rng.integers(-128, 128, size=(8, 32), dtype=np.int64)
        np.testing.assert_array_equal(unit.execute_subtile(weight, act, 4), weight @ act)

    def test_shape_validation(self):
        unit = TransArrayUnit()
        with pytest.raises(SimulationError):
            unit.execute_subtile(np.zeros((4, 7), dtype=np.int64),
                                 np.zeros((8, 4), dtype=np.int64), 8)
        with pytest.raises(SimulationError):
            unit.execute_subtile(np.zeros((4, 8), dtype=np.int64),
                                 np.zeros((7, 4), dtype=np.int64), 8)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 4, 8]))
    @settings(max_examples=15, deadline=None)
    def test_random_subtiles_are_lossless(self, seed, bits):
        rng = np.random.default_rng(seed)
        unit = TransArrayUnit()
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        rows = int(rng.integers(1, 40))
        weight = rng.integers(lo, hi + 1, size=(rows, 8), dtype=np.int64)
        act = rng.integers(-128, 128, size=(8, 16), dtype=np.int64)
        np.testing.assert_array_equal(unit.execute_subtile(weight, act, bits), weight @ act)


class TestUnitProfiling:
    def test_profile_density_near_floor_for_full_population(self):
        rng = np.random.default_rng(2)
        unit = TransArrayUnit()
        report = unit.profile_subtile(rng.integers(0, 256, size=256).tolist())
        assert 0.115 <= report.op_counts.density <= 0.16
        assert report.ape_cycles >= 1
        assert report.compute_cycles == max(report.ppe_cycles, report.ape_cycles)

    def test_static_profile_has_no_scoreboard_cycles(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 256, size=256).tolist()
        static = StaticScoreboard(width=8)
        static.fit(values)
        report = TransArrayUnit().profile_subtile(values, static_scoreboard=static)
        assert report.scoreboard_cycles == 0
        assert report.op_counts.total_transrows == 256

    def test_buffer_traffic_keys(self):
        rng = np.random.default_rng(4)
        report = TransArrayUnit().profile_subtile(rng.integers(0, 256, size=64).tolist())
        assert set(report.buffer_bytes) == {"weight", "input", "prefix", "output"}
        assert report.buffer_bytes["prefix"] > 0


class TestAccelerator:
    def test_configuration_validation(self):
        with pytest.raises(SimulationError):
            TransitiveArrayAccelerator(scoreboard_mode="offline")
        with pytest.raises(SimulationError):
            TransitiveArrayAccelerator(samples_per_gemm=0)

    def test_simulate_reports_positive_cycles_and_energy(self):
        accelerator = TransitiveArrayAccelerator(samples_per_gemm=2)
        report = accelerator.simulate(GemmShape("small", 128, 128, 64, weight_bits=8))
        assert report.cycles > 0
        assert report.energy_nj > 0
        assert report.macs == 128 * 128 * 64
        assert "small" in report.per_gemm_cycles

    def test_4bit_weights_roughly_double_throughput(self):
        shape = GemmShape("fc", 512, 512, 256, weight_bits=8)
        eight = TransitiveArrayAccelerator(samples_per_gemm=3).simulate(shape)
        four = TransitiveArrayAccelerator(samples_per_gemm=3).simulate(shape.with_precision(4))
        assert 1.6 <= eight.cycles / four.cycles <= 2.4

    def test_static_mode_density_never_beats_dynamic(self):
        shape = GemmShape("fc", 256, 256, 128, weight_bits=8)
        dynamic = TransitiveArrayAccelerator(samples_per_gemm=3, seed=1).simulate_gemm(shape)
        static = TransitiveArrayAccelerator(
            samples_per_gemm=3, seed=1, scoreboard_mode="static"
        ).simulate_gemm(shape)
        # The shared tensor-level SI can at best match the per-sub-tile SI
        # (paper Sec. 5.8); both stay far below bit-sparsity density.
        assert static.op_counts.density >= dynamic.op_counts.density * 0.95
        assert static.op_counts.density < 0.40
        assert static.cycles > 0 and dynamic.cycles > 0

    def test_weight_provider_is_used_and_validated(self):
        shape = GemmShape("fc", 64, 64, 32, weight_bits=8)
        calls = []

        def provider(s):
            calls.append(s.name)
            rng = np.random.default_rng(0)
            return rng.integers(-128, 128, size=(s.n, s.k), dtype=np.int64)

        accelerator = TransitiveArrayAccelerator(samples_per_gemm=2, weight_provider=provider)
        accelerator.simulate(shape)
        assert calls

        bad = TransitiveArrayAccelerator(
            samples_per_gemm=2, weight_provider=lambda s: np.zeros((2, 2), dtype=np.int64)
        )
        with pytest.raises(SimulationError):
            bad.simulate(shape)

    def test_workload_aggregation(self):
        workload = GemmWorkload(
            name="two",
            gemms=[GemmShape("a", 64, 64, 32), GemmShape("b", 64, 64, 32)],
        )
        report = TransitiveArrayAccelerator(samples_per_gemm=2).simulate(workload)
        assert set(report.per_gemm_cycles) == {"a", "b"}
        assert report.cycles == sum(report.per_gemm_cycles.values())


def _seeded_provider(shape):
    lo, hi = -(1 << (shape.weight_bits - 1)), (1 << (shape.weight_bits - 1)) - 1
    return np.random.default_rng(11).integers(lo, hi + 1, size=(shape.n, shape.k))


#: ``simulate_gemm`` outcomes at seed 7 with 5 samples: (cycles,
#: compute_cycles, dram_cycles, energy.total_nj, op_counts fields).  Both
#: shapes are ragged (n and k are not multiples of the sub-tile), so the
#: provider's edge tiles exercise the zero padding.
PINNED_PROFILES = {
    ("w4", "synthetic"): (2634, 2634, 1157, 4053.110149470357,
                          (8, 1280, 9, 806, 465, 22, 0, 5146)),
    ("w4", "provider"): (2395, 2395, 1157, 3400.1929244155563,
                         (8, 1280, 452, 538, 289, 44, 4, 3322)),
    ("w4", "static"): (1654, 1654, 1157, 3887.753653066771,
                       (8, 1280, 9, 806, 465, 241, 0, 5146)),
    ("w8", "synthetic"): (542, 542, 332, 817.0643303820957,
                          (8, 1280, 4, 799, 477, 16, 0, 5049)),
    ("w8", "provider"): (542, 542, 332, 818.9755834296071,
                         (8, 1280, 2, 813, 465, 21, 0, 5134)),
    ("w8", "static"): (332, 240, 332, 765.1329034950825,
                       (8, 1280, 4, 799, 477, 209, 0, 5049)),
}
PINNED_SHAPES = {
    "w4": GemmShape("w4", 200, 300, 40, weight_bits=4),
    "w8": GemmShape("w8", 96, 100, 24, weight_bits=8),
}
PINNED_MODES = {
    "synthetic": {},
    "provider": {"weight_provider": _seeded_provider},
    "static": {"scoreboard_mode": "static"},
}


class TestPinnedProfiles:
    """The sampled cost model is deterministic: these figures must not move
    when the TransRow packing or the scoreboard implementation changes."""

    @pytest.mark.parametrize("shape_name,mode", sorted(PINNED_PROFILES))
    def test_simulate_gemm_is_pinned(self, shape_name, mode):
        accelerator = TransitiveArrayAccelerator(
            samples_per_gemm=5, seed=7, **PINNED_MODES[mode]
        )
        profile = accelerator.simulate_gemm(PINNED_SHAPES[shape_name])
        cycles, compute, dram, energy_nj, counts = PINNED_PROFILES[shape_name, mode]
        assert profile.cycles == cycles
        assert profile.compute_cycles == compute
        assert profile.dram_cycles == dram
        assert profile.energy.total_nj == energy_nj
        oc = profile.op_counts
        assert (oc.width, oc.total_transrows, oc.zero_rows, oc.pr_ops, oc.fr_ops,
                oc.tr_ops, oc.outlier_ops, oc.set_bits) == counts
