"""Packing helpers converting between bit vectors and TransRow integer values.

The Transitive Array identifies each TransRow by the unsigned integer value of
its ``T``-bit pattern (paper Fig. 3).  The paper's figures read bit patterns
left-to-right with the *leftmost* bit addressing the first input row, so the
convention used throughout this library is:

    bit ``T-1-j`` of the packed integer corresponds to input row ``j``.

e.g. the 4-bit pattern ``1011`` packs to ``11`` and selects input rows 0, 2, 3.
"""

from __future__ import annotations

import numpy as np

from ..errors import BitSliceError
from .slicer import _validate_signed_range


def pack_transrows(weight: np.ndarray, bits: int, width: int) -> np.ndarray:
    """Pack every ``width``-bit TransRow of a signed weight matrix at once.

    Parameters
    ----------
    weight:
        Integer matrix of shape ``(N, K)`` whose values fit in ``bits``-bit
        two's complement.
    bits:
        Weight precision ``S`` (number of bit planes).
    width:
        TransRow width ``T`` in ``[1, 16]``.

    Returns
    -------
    numpy.ndarray
        ``(ceil(K / T), N, S)`` uint16 array: entry ``[c, n, s]`` is the packed
        value of plane ``s`` (LSB = 0) of row ``n`` over columns
        ``[c*T, (c+1)*T)``, bit ``T-1-j`` standing for column ``c*T + j``.  The
        last chunk is zero-padded on the right.

    The codes are range-checked before any cast, then packed straight from
    their narrowest unsigned representation: no bit-plane stack and no int64
    accumulator is built.
    """
    weight = np.asarray(weight)
    _validate_signed_range(weight, bits)
    if width < 1 or width > 16:
        raise BitSliceError(f"TransRow width must be in [1, 16], got {width}")
    n_rows, n_cols = weight.shape
    chunks = -(-n_cols // width)
    unsigned = next(
        dtype for dtype in (np.uint8, np.uint16, np.uint32)
        if bits <= np.iinfo(dtype).bits
    )
    # The unsafe cast keeps the low bits of every two's-complement code; the
    # mask then drops the sign extension above plane bits-1.
    codes = np.zeros((n_rows, chunks * width), dtype=unsigned)
    np.copyto(codes[:, :n_cols], weight, casting="unsafe")
    codes &= unsigned((1 << bits) - 1)
    packed = np.empty((chunks, n_rows, bits), dtype=np.uint16)
    plane = np.empty((n_rows, chunks), dtype=np.uint16)
    for s in range(bits):
        plane[...] = 0
        for j in range(width):  # column j of each chunk -> bit T-1-j
            bit = ((codes[:, j::width] >> s) & 1).astype(np.uint16)
            plane |= bit << np.uint16(width - 1 - j)
        packed[:, :, s] = plane.T
    return packed


def pack_bits_to_uint(bits: np.ndarray) -> np.ndarray:
    """Pack rows of a binary matrix into unsigned TransRow values.

    Parameters
    ----------
    bits:
        Array of shape ``(..., T)`` with values in {0, 1}.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(...,)`` holding each row's packed integer value, with
        the first column mapped to the most-significant bit.
    """
    bits = np.asarray(bits)
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise BitSliceError("pack_bits_to_uint expects a 0/1 matrix")
    width = bits.shape[-1]
    if width < 1 or width > 63:
        raise BitSliceError(f"TransRow width must be in [1, 63], got {width}")
    weights = (1 << np.arange(width - 1, -1, -1)).astype(np.int64)
    return (bits.astype(np.int64) * weights).sum(axis=-1)


def unpack_uint_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_to_uint`.

    Expands packed TransRow values back into a ``(..., width)`` 0/1 matrix with
    the most-significant bit in column 0.
    """
    if width < 1 or width > 63:
        raise BitSliceError(f"TransRow width must be in [1, 63], got {width}")
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >= (1 << width)):
        raise BitSliceError(
            f"values outside [0, {(1 << width) - 1}] cannot be unpacked at width {width}"
        )
    shifts = np.arange(width - 1, -1, -1)
    return ((values[..., None] >> shifts) & 1).astype(np.uint8)


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits (Hamming weight) of each packed TransRow value."""
    values = np.asarray(values, dtype=np.uint64)
    counts = np.zeros(values.shape, dtype=np.int64)
    work = values.copy()
    while work.any():
        counts += (work & 1).astype(np.int64)
        work >>= np.uint64(1)
    return counts
