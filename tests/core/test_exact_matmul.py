"""The planned product: float32 or float64 limbs in one BLAS call, or int64.

Every result is checked against the Python-int product of the operands: equal
to it wherever it fits int64, and equal to its int64 wrap beyond that.  The
bound edges are hit exactly: an activation column of ``p * sign(w)`` against
the row attaining ``B = max_row sum|w|`` makes that output ``B * p``.  Besides
those ``B * p`` edges, the peaks on either side of every limb-count step of
both float widths are drawn (:func:`limb_edges`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import GemmPlan, TransitiveGemmEngine, exact_matmul
from repro.core.transitive_gemm import _row_bound

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max

#: ``B * p`` targets: the float32 and float64 one-limb bounds, the old
#: two-limb bound, and int64 wrap.
EDGES = (
    2**24 - 1, 2**24, 2**24 + 1,
    2**53 - 1, 2**53, 2**53 + 1,
    2**62 - 1, 2**62, 2**62 + 1,
    2**63 - 1, 2**63, 2**64 + 1,
)

ENGINE = TransitiveGemmEngine(transrow_bits=4, scoreboard_cache_entries=0)


def limb_edges(bound: int) -> list:
    """Peaks at the last ``L``-limb batch and the first ``L + 1``-limb batch.

    With limbs of ``s = m - bitlen(B)`` bits, ``L`` limbs of an ``m``-bit
    float are exact iff ``p <= top * 2**(s*(L-1))``, ``top = (2**m - 1) // B``.
    """
    peaks = []
    for mantissa in (24, 53):
        shift = mantissa - bound.bit_length()
        top = ((1 << mantissa) - 1) // bound
        for step in range(64 // shift + 1 if shift >= 1 else 1):
            last = top << (shift * step)
            peaks += [p for p in (last, last + 1) if 0 < p <= INT64_MAX]
    return peaks


def expected_product(weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Python-int ``weight @ x``, wrapped to int64 only where it overflows."""
    exact = np.asarray(weight).astype(object) @ np.asarray(x).astype(object)
    wrap = np.vectorize(lambda v: (int(v) + 2**63) % 2**64 - 2**63, otypes=[object])
    return wrap(exact) if exact.size else exact


def assert_exact(weight: np.ndarray, x: np.ndarray, output: np.ndarray) -> None:
    assert output.dtype == np.int64
    assert output.shape == (weight.shape[0], x.shape[1])
    assert np.array_equal(output.astype(object), expected_product(weight, x))


def edge_activation(weight: np.ndarray, peak: int, extra: np.ndarray) -> np.ndarray:
    """A ``peak * sign(w)`` column on the bound-attaining row, then ``extra``."""
    row = int(np.argmax(np.abs(weight).sum(axis=1)))
    signs = np.where(weight[row] < 0, -1, 1).astype(object)
    column = (signs * peak).astype(np.int64).reshape(-1, 1)
    return np.concatenate([column, extra], axis=1)


@st.composite
def edge_cases(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    weight = draw(arrays(np.int64, (n, k), elements=st.integers(-8, 7)))
    if not weight.any():
        weight[0, 0] = 1
    bound = _row_bound(weight)
    if draw(st.booleans()):
        peak = draw(st.sampled_from(limb_edges(bound)))
    else:
        target = draw(st.sampled_from(EDGES))
        # The floor and the ceiling of target / B put B * p on either side of it.
        peak = draw(st.sampled_from((target // bound, -(-target // bound))))
        peak = min(peak, INT64_MAX)
    extra = draw(arrays(
        np.int64, (k, draw(st.integers(0, 3))),
        elements=st.integers(-peak, peak),
    ))
    return weight, edge_activation(weight, peak, extra)


class TestBoundEdges:
    @settings(max_examples=200, deadline=None)
    @given(edge_cases())
    def test_planned_product_is_exact_at_every_edge(self, case):
        weight, x = case
        plan = ENGINE.plan(weight, 4)
        assert_exact(weight, x, ENGINE.multiply_planned(plan, x).output)

    @pytest.mark.parametrize("target", EDGES)
    @pytest.mark.parametrize("row", [[1], [1, 1, 1], [3, -2, 7, -1]])
    def test_exact_edges_with_divisible_bounds(self, target, row):
        weight = np.array([row], dtype=np.int64)
        bound = _row_bound(weight)
        peak = min(target // bound, INT64_MAX)
        x = edge_activation(weight, peak, np.zeros((len(row), 0), dtype=np.int64))
        # Odd values below the attaining column defeat a rounding float path.
        x = np.concatenate([x, x - 1], axis=1)
        plan = ENGINE.plan(weight, 4)
        assert_exact(weight, x, ENGINE.multiply_planned(plan, x).output)

    @pytest.mark.parametrize("row", [[1], [1, 1, 1], [3, -2, 7, -1], [7] * 40])
    @pytest.mark.parametrize("columns", [1, 5, 16, 40])
    def test_every_limb_count_step(self, row, columns):
        weight = np.array([row], dtype=np.int64)
        plan = ENGINE.plan(weight, 4)
        rng = np.random.default_rng(len(row) * columns)
        for peak in limb_edges(plan.row_bound):
            extra = rng.integers(-peak, peak, size=(len(row), columns - 1),
                                 dtype=np.int64, endpoint=True)
            x = edge_activation(weight, peak, extra)
            assert_exact(weight, x, ENGINE.multiply_planned(plan, x).output)


def kernel_plan(weight: np.ndarray) -> GemmPlan:
    """A plan holding only what :func:`exact_matmul` reads, for weights too
    wide to scoreboard."""
    weight = np.asarray(weight, dtype=np.int64)
    return GemmPlan(
        weight=weight, weight_bits=64, transrow_bits=8, max_distance=4, op_counts=None,
        weight_f32=weight.astype(np.float32), weight_f64=weight.astype(np.float64),
        row_bound=_row_bound(weight),
    )


class TestWideWeights:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), bits=st.integers(1, 60))
    def test_wide_bounds_fall_back_to_int64_when_limbs_are_inexact(self, data, bits):
        # Past bitlen(B) = 24 no float32 limb is exact, and past 52 no float64
        # limb is either, so the product must leave the float tiers.
        k = data.draw(st.integers(1, 5))
        weight = data.draw(arrays(
            np.int64, (2, k), elements=st.integers(-(2**bits), 2**bits)
        ))
        if not weight.any():
            weight[0, 0] = 1
        bound = _row_bound(weight)
        target = data.draw(st.sampled_from(EDGES))
        peak = min(data.draw(st.sampled_from(
            (target // bound, -(-target // bound), *limb_edges(bound))
        )), INT64_MAX)
        extra = data.draw(arrays(
            np.int64, (k, 2), elements=st.integers(-peak, peak)
        ))
        x = edge_activation(weight, peak, extra)
        assert_exact(weight, x, exact_matmul(kernel_plan(weight), x))

    @pytest.mark.parametrize("value", [16383, -1050, 1050])
    def test_limbs_are_certified_not_assumed(self, value):
        # B = 2**48 - 3 gives 5-bit float64 limbs, and with two limbs
        # W @ (x >> 5) is an odd integer past 2**53: the top limb must be
        # bounded by ceil(p / 2**(s*(L-1))), which takes a third limb here,
        # or float64 rounds it.
        weight = np.array([[2**47 - 1, 2**47 - 2]], dtype=np.int64)
        x = np.full((2, 1), value, dtype=np.int64)
        assert_exact(weight, x, exact_matmul(kernel_plan(weight), x))


class TestRecombination:
    @pytest.mark.parametrize(
        "row, value",
        [
            ([7, 7, 7, 7], 2**61 + 1),  # four float32 limbs
            ([7, 7, 7, 7], -(2**61) - 3),
            ([2**30, 2**30 - 1], 2**40 + 5),  # two float64 limbs
            ([2**30, 2**30 - 1], INT64_MIN),
        ],
    )
    def test_limb_sum_wraps_like_the_int64_product(self, row, value):
        weight = np.array([row], dtype=np.int64)
        x = np.full((len(row), 2), value, dtype=np.int64)
        x[-1, 1] = 3
        assert abs((weight.astype(object) @ x.astype(object))[0, 0]) >= 2**63
        assert_exact(weight, x, exact_matmul(kernel_plan(weight), x))


class TestActivationShapes:
    @settings(max_examples=60, deadline=None)
    @given(
        weight=arrays(np.int64, (3, 5), elements=st.integers(-8, 7)),
        x=arrays(np.int64, (5, 1), elements=st.integers(INT64_MIN, INT64_MAX)),
    )
    def test_one_column_batches_anywhere_in_int64(self, weight, x):
        plan = ENGINE.plan(weight, 4)
        assert_exact(weight, x, ENGINE.multiply_planned(plan, x).output)

    def test_int64_min_activation(self):
        weight = np.array([[1, -1], [2, 3]], dtype=np.int64)
        x = np.array([[INT64_MIN, 5], [INT64_MIN, INT64_MIN]], dtype=np.int64)
        plan = ENGINE.plan(weight, 4)
        assert_exact(weight, x, ENGINE.multiply_planned(plan, x).output)

    def test_empty_batch(self):
        weight = np.array([[1, 2, 3], [-4, 5, -6]], dtype=np.int64)
        plan = ENGINE.plan(weight, 4)
        output = ENGINE.multiply_planned(plan, np.zeros((3, 0), dtype=np.int64)).output
        assert output.shape == (2, 0) and output.dtype == np.int64
        batch = ENGINE.multiply_many(
            plan, [np.zeros((3, 0), dtype=np.int64), np.ones((3, 1), dtype=np.int64)]
        )
        assert batch.outputs[0].shape == (2, 0)
        assert np.array_equal(batch.outputs[1], weight @ np.ones((3, 1), dtype=np.int64))

    def test_multiply_many_mixed_magnitudes_stay_exact(self):
        weight = np.array([[7, 7, 7, 7]], dtype=np.int64)
        plan = ENGINE.plan(weight, 4)
        small = np.full((4, 1), 3, dtype=np.int64)
        huge = np.full((4, 1), 2**58 + 1, dtype=np.int64)
        batch = ENGINE.multiply_many(plan, [small, huge])
        assert_exact(weight, small, batch.outputs[0])
        assert_exact(weight, huge, batch.outputs[1])


class TestPlanKernelState:
    def test_plan_pins_read_only_float64_weights_and_row_bound(self):
        weight = np.array([[1, -8, 3], [7, 7, -7]], dtype=np.int8)
        plan = ENGINE.plan(weight, 4)
        assert plan.weight_f64.dtype == np.float64
        assert not plan.weight_f64.flags.writeable
        assert np.array_equal(plan.weight_f64, weight)
        assert plan.weight_f32.dtype == np.float32
        assert not plan.weight_f32.flags.writeable
        assert np.array_equal(plan.weight_f32, weight)
        assert plan.row_bound == 21 and isinstance(plan.row_bound, int)
        assert plan.kernel_build_s >= 0.0

    def test_row_bound_falls_back_to_python_ints_past_int64(self):
        weight = np.array([[2**61, -(2**61), 2**61, 2**61], [1, 0, 0, 0]], dtype=np.int64)
        assert _row_bound(weight) == 2**63

    def test_int8_weights_serve_exactly(self):
        weight = np.array([[-128, 127], [5, -3]], dtype=np.int8)
        plan = ENGINE.plan(weight, 8)
        x = np.array([[2**56, -3], [-(2**55), 9]], dtype=np.int64)
        assert_exact(weight, x, exact_matmul(plan, x))

    def test_op_counts_are_the_scoreboards(self):
        rng = np.random.default_rng(0)
        weight = rng.integers(-8, 8, size=(16, 12), dtype=np.int64)
        x = rng.integers(-64, 64, size=(12, 4), dtype=np.int64)
        plan = ENGINE.plan(weight, 4)
        scalar = TransitiveGemmEngine(transrow_bits=4, fast=False)
        oracle = scalar.multiply(weight, x, 4)
        report = ENGINE.multiply_planned(plan, x)
        assert report.op_counts == plan.op_counts == oracle.op_counts
        assert np.array_equal(report.output, oracle.output)
