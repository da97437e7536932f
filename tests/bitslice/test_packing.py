"""Tests for TransRow packing helpers and the bit-ordering convention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitslice import (
    bit_slice,
    pack_bits_to_uint,
    pack_transrows,
    popcount,
    unpack_uint_to_bits,
)
from repro.core import TransitiveGemmEngine
from repro.errors import BitSliceError, SimulationError


class TestPacking:
    def test_paper_convention_msb_is_first_input_row(self):
        # The pattern 1011 from Fig. 1 selects input rows 0, 2, 3 and packs to 11.
        assert pack_bits_to_uint(np.array([1, 0, 1, 1])) == 11

    def test_pack_unpack_roundtrip(self):
        bits = np.array([[1, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 0]])
        values = pack_bits_to_uint(bits)
        assert values.tolist() == [15, 2, 0]
        np.testing.assert_array_equal(unpack_uint_to_bits(values, 4), bits)

    def test_non_binary_rejected(self):
        with pytest.raises(BitSliceError):
            pack_bits_to_uint(np.array([[2, 0, 1, 1]]))

    def test_out_of_range_unpack_rejected(self):
        with pytest.raises(BitSliceError):
            unpack_uint_to_bits(np.array([16]), 4)
        with pytest.raises(BitSliceError):
            unpack_uint_to_bits(np.array([-1]), 4)

    def test_bad_width_rejected(self):
        with pytest.raises(BitSliceError):
            unpack_uint_to_bits(np.array([0]), 0)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, width, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << width, size=20, dtype=np.int64)
        bits = unpack_uint_to_bits(values, width)
        np.testing.assert_array_equal(pack_bits_to_uint(bits), values)


class TestPopcount:
    def test_matches_python_bin(self):
        values = np.array([0, 1, 3, 255, 128, 170])
        expected = [bin(v).count("1") for v in values]
        assert popcount(values).tolist() == expected

    @given(st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_popcount_property(self, values):
        result = popcount(np.array(values, dtype=np.int64))
        assert result.tolist() == [bin(v).count("1") for v in values]


def _reference_transrows(weight, bits, width):
    """``pack_bits_to_uint`` over zero-padded ``bit_slice`` planes, as
    ``(chunks, N, S)``."""
    planes = bit_slice(weight, bits).planes  # (S, N, K)
    n_rows, n_cols = weight.shape
    chunks = -(-n_cols // width)
    padded = np.zeros((bits, n_rows, chunks * width), dtype=np.uint8)
    padded[:, :, :n_cols] = planes
    values = pack_bits_to_uint(padded.reshape(bits, n_rows, chunks, width))
    return values.transpose(2, 1, 0)


def _signed_codes(rng, bits, shape, dtype=np.int64):
    lo, hi = (0, 1) if bits == 1 else (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return rng.integers(lo, hi, size=shape, endpoint=True).astype(dtype)


class TestPackTransrows:
    @pytest.mark.parametrize("width", [1, 5, 8, 16])
    @pytest.mark.parametrize("bits", [1, 3, 4, 8, 12, 32])
    def test_matches_bit_slice_reference(self, width, bits):
        rng = np.random.default_rng(width * 100 + bits)
        weight = _signed_codes(rng, bits, (7, 37))  # 37 columns: ragged at 5, 8, 16
        packed = pack_transrows(weight, bits, width)
        assert packed.dtype == np.uint16
        assert packed.shape == (-(-37 // width), 7, bits)
        np.testing.assert_array_equal(packed, _reference_transrows(weight, bits, width))

    @pytest.mark.parametrize("n_cols", [1, 8, 9, 23])
    def test_single_row_and_ragged_last_chunk(self, n_cols):
        rng = np.random.default_rng(n_cols)
        weight = _signed_codes(rng, 4, (1, n_cols))
        packed = pack_transrows(weight, 4, 8)
        assert packed.shape == (-(-n_cols // 8), 1, 4)
        np.testing.assert_array_equal(packed, _reference_transrows(weight, 4, 8))

    def test_paper_bit_order(self):
        # Row [1, 0, 1, 1, 0, 0, 0, 0] at 1 bit is the pattern 1011 0000.
        weight = np.array([[1, 0, 1, 1, 0, 0, 0, 0]])
        assert pack_transrows(weight, 1, 8)[0, 0, 0] == 0b10110000
        assert pack_transrows(weight[:, :4], 1, 4)[0, 0, 0] == 11

    @pytest.mark.parametrize("dtype,bits", [(np.int8, 8), (np.int16, 16), (np.int32, 32)])
    def test_extreme_codes_in_their_native_dtype(self, dtype, bits):
        info = np.iinfo(dtype)
        weight = np.array([[info.min, info.max, -1, 0, 1, info.min + 1]], dtype=dtype)
        packed = pack_transrows(weight, bits, 8)
        np.testing.assert_array_equal(packed, _reference_transrows(weight, bits, 8))
        # Plane bits-1 holds exactly the sign bits of the row.
        assert packed[0, 0, bits - 1] == 0b10100100

    def test_narrow_dtype_matches_int64(self):
        rng = np.random.default_rng(5)
        weight = _signed_codes(rng, 4, (9, 30))
        np.testing.assert_array_equal(
            pack_transrows(weight.astype(np.int8), 4, 8), pack_transrows(weight, 4, 8)
        )

    @pytest.mark.parametrize("bits,value", [(4, 8), (4, -9), (8, 128), (1, -1), (8, -129)])
    def test_out_of_range_codes_rejected(self, bits, value):
        weight = np.zeros((3, 10), dtype=np.int64)
        weight[1, 4] = value
        with pytest.raises(BitSliceError):
            pack_transrows(weight, bits, 8)
        with pytest.raises(SimulationError):
            TransitiveGemmEngine().plan(weight, bits)

    def test_invalid_arguments_rejected(self):
        weight = np.zeros((2, 8), dtype=np.int64)
        for width in (0, 17):
            with pytest.raises(BitSliceError):
                pack_transrows(weight, 4, width)
        with pytest.raises(BitSliceError):
            pack_transrows(weight, 33, 8)
        with pytest.raises(BitSliceError):
            pack_transrows(weight.astype(np.float64), 4, 8)
        with pytest.raises(BitSliceError):
            pack_transrows(np.zeros(8, dtype=np.int64), 4, 8)
