"""Planned execution agrees bit-for-bit with every other path, in every tier.

The planned product (:func:`~repro.core.exact_matmul`) is checked against the
scalar oracle, the vectorized transitive path (the batched prefix-reuse walk)
and the Python-int product, across weight precisions, TransRow widths, prefix
distances, weight dtypes and real quantizer outputs.  Each case runs once per
tier of :data:`TIER_PEAKS`, by scaling the activation so that ``B * p`` (row
bound times peak ``|x|``) lands on either side of ``2**24`` and ``2**53``, on
either side of a limb-count step of each float width, below ``2**62`` or
anywhere in int64.  Separate tests count the BLAS calls on both float weight
copies to pin the float width and limb count each ``B * p`` selects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GemmPlan, TransitiveGemmEngine, exact_matmul
from repro.core.transitive_gemm import _row_bound
from repro.errors import SimulationError
from repro.quant.schemes import SCHEME_REGISTRY

INT64_MAX = np.iinfo(np.int64).max


def _limb_step(mantissa: int, limbs: int, past: int = 0):
    """Largest peak that ``limbs`` limbs of a ``mantissa``-bit float cover,
    plus ``past`` (1 makes it the first peak that needs one limb more)."""
    def peak(bound: int) -> int:
        shift = max(mantissa - bound.bit_length(), 0)
        top = ((1 << mantissa) - 1) // bound
        return min((top << (shift * (limbs - 1))) + past, INT64_MAX)
    return peak


#: Largest activation peak per tier, given the row bound ``B``.
TIER_PEAKS = {
    "float32": _limb_step(24, 1),  # B * p < 2**24: one float32 limb
    "float32-2": _limb_step(24, 1, past=1),  # B * p >= 2**24: two limbs
    "float32-2-top": _limb_step(24, 2),
    "float32-3": _limb_step(24, 2, past=1),
    "float64": _limb_step(53, 1),
    "float64-2": _limb_step(53, 1, past=1),
    "two-limb": lambda bound: (2**62 - 1) // bound,  # B * p just below 2**62
    "int64": lambda bound: INT64_MAX,
}
TIERS = sorted(TIER_PEAKS)


def python_int_product(weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``weight @ x`` in Python ints, wrapped to int64 where it overflows."""
    exact = np.asarray(weight).astype(object) @ np.asarray(x).astype(object)
    wrap = np.vectorize(lambda v: (int(v) + 2**63) % 2**64 - 2**63, otypes=[object])
    return wrap(exact).astype(np.int64) if exact.size else exact.astype(np.int64)


def tier_activation(rng, plan: GemmPlan, tier: str, m: int) -> np.ndarray:
    """An ``(k, m)`` activation whose peak puts ``B * p`` at the top of ``tier``."""
    peak = TIER_PEAKS[tier](plan.row_bound)
    x = rng.integers(-peak, peak, size=(plan.k, m), dtype=np.int64, endpoint=True)
    x[0, 0] = peak
    return x


def assert_all_paths_agree(engine: TransitiveGemmEngine, plan: GemmPlan, x: np.ndarray):
    """Planned == vectorized == scalar oracle == Python ints."""
    expected = python_int_product(plan.weight, x)
    planned = engine.multiply_planned(plan, x)
    assert planned.output.dtype == np.int64
    assert np.array_equal(planned.output, expected)
    assert planned.op_counts == plan.op_counts
    vectorized = engine.multiply(plan.weight, x, plan.weight_bits)
    assert np.array_equal(vectorized.output, expected)
    scalar = TransitiveGemmEngine(
        transrow_bits=engine.transrow_bits, max_distance=engine.max_distance, fast=False
    )
    oracle = scalar.multiply(plan.weight, x, plan.weight_bits)
    assert np.array_equal(oracle.output, expected)
    assert oracle.op_counts == plan.op_counts


def random_weight(rng, n: int, k: int, bits: int, dtype=np.int64) -> np.ndarray:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return rng.integers(lo, hi, size=(n, k), endpoint=True).astype(dtype)


class TestWeightPrecisions:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_planned_matches_every_path(self, bits, tier):
        rng = np.random.default_rng(bits)
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(random_weight(rng, 18, 14, bits), bits)
        for m in (1, 3, 16):
            assert_all_paths_agree(engine, plan, tier_activation(rng, plan, tier, m))


class TestQuantSchemes:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("scheme", sorted(SCHEME_REGISTRY))
    def test_planned_matches_every_path(self, scheme, tier):
        # Real quantizer outputs (outliers, power-of-two values, pruned bit
        # patterns) exercise the scoreboard far better than uniform noise.
        rng = np.random.default_rng(sum(map(ord, scheme)))
        quantized = SCHEME_REGISTRY[scheme](rng.normal(0.0, 0.02, size=(24, 16)))
        # Outlier-coding schemes (OliVe) emit values past the nominal range;
        # plan at whatever precision the emitted values actually need.
        bits = max(
            quantized.bits, int(np.abs(quantized.values).max()).bit_length() + 1
        )
        engine = TransitiveGemmEngine(transrow_bits=8)
        plan = engine.plan(quantized.values, bits)
        assert_all_paths_agree(engine, plan, tier_activation(rng, plan, tier, 5))


class TestEngineGeometry:
    @pytest.mark.parametrize("transrow_bits", [1, 2, 3, 5, 8])
    def test_transrow_widths(self, transrow_bits):
        rng = np.random.default_rng(20 + transrow_bits)
        engine = TransitiveGemmEngine(transrow_bits=transrow_bits)
        # k not a multiple of T exercises the zero-padded last chunk.
        plan = engine.plan(random_weight(rng, 9, 11, 6), 6)
        for tier in TIERS:
            assert_all_paths_agree(engine, plan, tier_activation(rng, plan, tier, 4))

    @pytest.mark.parametrize("max_distance", [1, 2, 4, 8])
    def test_prefix_distances(self, max_distance):
        rng = np.random.default_rng(30 + max_distance)
        engine = TransitiveGemmEngine(transrow_bits=4, max_distance=max_distance)
        plan = engine.plan(random_weight(rng, 12, 10, 4), 4)
        for tier in TIERS:
            assert_all_paths_agree(engine, plan, tier_activation(rng, plan, tier, 3))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_weight_dtypes(self, dtype):
        rng = np.random.default_rng(40)
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(random_weight(rng, 10, 9, 8, dtype=dtype), 8)
        assert plan.weight.dtype == np.int8  # the narrowest dtype of 8 bits
        for tier in TIERS:
            assert_all_paths_agree(engine, plan, tier_activation(rng, plan, tier, 2))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.integers(2, 8),
        transrow_bits=st.integers(1, 6),
        n=st.integers(1, 8),
        k=st.integers(1, 10),
        tier=st.sampled_from(TIERS),
    )
    def test_random_geometry(self, seed, bits, transrow_bits, n, k, tier):
        rng = np.random.default_rng(seed)
        engine = TransitiveGemmEngine(transrow_bits=transrow_bits)
        weight = random_weight(rng, n, k, bits)
        weight[0, 0] = 1  # a nonzero row bound
        plan = engine.plan(weight, bits)
        assert_all_paths_agree(engine, plan, tier_activation(rng, plan, tier, 2))


class _CountingMatmul(np.ndarray):
    """A float weight view that records every product taken from it."""

    calls: list

    def __matmul__(self, other):
        self.calls.append((self.dtype, other.shape))
        return np.asarray(self) @ other


def counting_plan(weight) -> GemmPlan:
    """A kernel-only plan whose float weights record, in one shared list, the
    dtype and operand shape of every BLAS call taken from them."""
    weight = np.asarray(weight, dtype=np.int64)
    weight_f32, weight_f64 = (
        weight.astype(dtype).view(_CountingMatmul) for dtype in (np.float32, np.float64)
    )
    weight_f32.calls = weight_f64.calls = []
    return GemmPlan(
        weight=weight, weight_bits=64, transrow_bits=8, max_distance=4, op_counts=None,
        weight_f32=weight_f32, weight_f64=weight_f64, row_bound=_row_bound(weight),
    )


def limbs_called(plan: GemmPlan, x: np.ndarray):
    """``(dtype, L)`` of the one BLAS call ``exact_matmul`` takes (``None``
    for the int64 product), checking its output against Python ints."""
    del plan.weight_f32.calls[:]
    output = exact_matmul(plan, x)
    assert np.array_equal(output, python_int_product(plan.weight, x))
    calls = plan.weight_f32.calls
    assert len(calls) <= 1
    if not calls:
        return None
    dtype, shape = calls[0]
    assert shape[1] % x.shape[1] == 0
    return np.dtype(dtype).name, shape[1] // x.shape[1]


class TestTierSelection:
    """One BLAS call per batch, on the float width and limb count the bound
    and the batch width pick; the int64 product only past ``bitlen(B) = 52``."""

    @pytest.mark.parametrize(
        "row, peak, columns, expected",
        [
            ([1], 0, 3, ("float32", 1)),
            ([1], 2**24 - 1, 3, ("float32", 1)),
            ([1], 2**24, 3, ("float32", 2)),
            ([3, -1], (2**24 - 1) // 4, 3, ("float32", 1)),
            ([3, -1], 2**22, 3, ("float32", 2)),
            # Limb-count steps of 23-bit float32 limbs (B = 1).
            ([1], (2**24 - 1) << 23, 3, ("float32", 2)),
            ([1], ((2**24 - 1) << 23) + 1, 3, ("float32", 3)),
            ([1], INT64_MAX, 3, ("float32", 3)),
            # float32 wins while max(L32 * c, 16) <= 2 * max(L64 * c, 16).
            ([1], 2**24, 16, ("float32", 2)),
            ([1], 2**24, 40, ("float32", 2)),
            ([1], 2**53 - 1, 10, ("float32", 3)),
            ([1], 2**53 - 1, 11, ("float64", 1)),
            ([1], 2**53, 11, ("float32", 3)),
            ([3, -1], 2**51, 3, ("float32", 3)),
            ([3, -1], 2**60, 3, ("float32", 3)),
            # Past bitlen(B) = 23 only float64 limbs are exact ...
            ([2**30], 0, 3, ("float32", 1)),
            ([2**30], 1, 3, ("float64", 1)),
            ([2**30, 2**30 - 1], 2**40, 3, ("float64", 2)),
            # ... certified limb by limb: two 5-bit limbs would round here.
            ([2**47 - 1, 2**47 - 2], 16383, 3, ("float64", 3)),
            ([2**51], 2**62, 3, ("float64", 62)),
            # ... and past bitlen(B) = 52 none are.
            ([2**52], 1, 3, ("float64", 1)),
            ([2**52], 2, 3, None),
            ([2**60, 1], INT64_MAX, 3, None),
        ],
    )
    def test_one_call_per_batch(self, row, peak, columns, expected):
        plan = counting_plan([row])
        x = np.full((len(row), columns), peak // 3, dtype=np.int64)
        x[:, 0] = peak
        x[:, 1] = -peak
        assert limbs_called(plan, x) == expected

    def test_recombination_wraps_past_int64(self):
        # 28 * (2**61 + 1) > 2**63: four float32 limbs, summed with wrap.
        plan = counting_plan([[7, 7, 7, 7]])
        x = np.full((4, 2), 2**61 + 1, dtype=np.int64)
        assert limbs_called(plan, x) == ("float32", 4)

    def test_choice_is_made_per_batch_from_its_peak_and_width(self):
        plan = counting_plan([[5, -5]])  # B = 10
        small = np.full((2, 1), 7, dtype=np.int64)
        large = np.full((2, 1), 2**45, dtype=np.int64)
        assert limbs_called(plan, small) == ("float32", 1)
        assert limbs_called(plan, np.concatenate([small, large], axis=1)) == ("float32", 3)
        wide = np.concatenate([small] * 10 + [large], axis=1)
        assert limbs_called(plan, wide) == ("float64", 1)


class TestMultiplyMany:
    def test_outputs_are_independent_copies(self):
        rng = np.random.default_rng(50)
        engine = TransitiveGemmEngine(transrow_bits=4)
        weight = random_weight(rng, 6, 5, 4)
        plan = engine.plan(weight, 4)
        acts = [rng.integers(-9, 9, size=(5, m), dtype=np.int64) for m in (1, 2, 3)]
        batch = engine.multiply_many(plan, acts)
        assert all(output.base is None for output in batch.outputs)
        batch.outputs[0][:] = 0
        assert np.array_equal(batch.outputs[1], weight @ acts[1])
        assert np.array_equal(batch.outputs[2], weight @ acts[2])

    def test_single_activation_matches_multiply_planned(self):
        rng = np.random.default_rng(51)
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(random_weight(rng, 7, 6, 4), 4)
        x = tier_activation(rng, plan, "two-limb", 4)
        batch = engine.multiply_many(plan, [x])
        assert batch.batch_size == 1 and batch.total_columns == 4
        assert np.array_equal(batch.outputs[0], engine.multiply_planned(plan, x).output)
        assert batch.op_counts == plan.op_counts

    @pytest.mark.parametrize("tier", TIERS)
    def test_each_request_matches_its_own_product(self, tier):
        rng = np.random.default_rng(52)
        engine = TransitiveGemmEngine(transrow_bits=4)
        weight = random_weight(rng, 8, 7, 8)
        plan = engine.plan(weight, 8)
        acts = [tier_activation(rng, plan, tier, m) for m in (2, 1, 5)]
        batch = engine.multiply_many(plan, acts)
        for output, x in zip(batch.outputs, acts):
            assert np.array_equal(output, python_int_product(weight, x))


class TestActivationRank:
    @pytest.fixture()
    def planned(self):
        engine = TransitiveGemmEngine(transrow_bits=4)
        weight = np.arange(12, dtype=np.int64).reshape(3, 4) - 6
        return engine, engine.plan(weight, 4)

    @pytest.mark.parametrize("shape", [(4,), (4, 2, 1)])
    def test_multiply_planned_rejects_non_matrices(self, planned, shape):
        engine, plan = planned
        with pytest.raises(SimulationError):
            engine.multiply_planned(plan, np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("shape", [(4,), (4, 2, 1)])
    def test_multiply_many_rejects_non_matrices(self, planned, shape):
        engine, plan = planned
        good = np.ones((4, 1), dtype=np.int64)
        with pytest.raises(SimulationError):
            engine.multiply_many(plan, [good, np.zeros(shape, dtype=np.int64)])


class TestPlanPinning:
    def test_plan_ignores_later_caller_writes(self):
        rng = np.random.default_rng(60)
        engine = TransitiveGemmEngine(transrow_bits=4)
        weight = random_weight(rng, 5, 6, 4)
        original = weight.copy()
        plan = engine.plan(weight, 4)
        weight[:] = 7
        x = rng.integers(-50, 50, size=(6, 3), dtype=np.int64)
        assert np.array_equal(plan.weight_f64, original)
        assert plan.row_bound == _row_bound(original)
        assert np.array_equal(engine.multiply_planned(plan, x).output, original @ x)

    def test_all_zero_weights_give_a_zero_bound(self):
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(np.zeros((3, 5), dtype=np.int64), 4)
        assert plan.row_bound == 0
        x = np.full((5, 2), INT64_MAX, dtype=np.int64)
        output = engine.multiply_planned(plan, x).output
        assert output.dtype == np.int64 and not output.any()
