"""Exact oracle for chained integer GEMMs.

The served output of a chain is checked against the exact integer product,
computed one stage at a time.  Each stage picks the cheapest arithmetic that
is *proven* exact for each activation column from the static bound
``max_row sum|w| * max|x|``, evaluated in Python ints:

* below 2**53 every partial sum is an integer that float64 holds exactly, in
  any summation order, so the stage runs as a float64 BLAS product;
* below 2**63 it runs as an int64 product, which cannot wrap.  NumPy's int64
  matmul is slow (about 0.6 Gop/s without BLAS), so below 2**62 the product
  is split into two float64 products that are each exact: ``x = hi * 2**s +
  lo`` with ``bound * 2**s < 2**52`` and ``bound * max|hi| < 2**53``;
* otherwise it falls back to object-dtype Python ints, which never wrap.

A served output that wrapped int64 therefore differs from the oracle's.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

FLOAT64_EXACT = 1 << 53
INT64_EXACT = 1 << 63


def column_peaks(x: np.ndarray) -> List[int]:
    """Largest magnitude of each column, as Python ints."""
    if x.dtype == object:
        return [max((abs(int(v)) for v in x[:, j]), default=0) for j in range(x.shape[1])]
    wide = x.astype(object) if x.size and int(x.min()) == np.iinfo(np.int64).min else x
    return [int(v) for v in np.abs(wide).max(axis=0)] if x.shape[0] else [0] * x.shape[1]


class ChainOracle:
    """Exact ``w_n @ ... @ w_1 @ x`` for integer weights and activations."""

    def __init__(self, weights: Sequence[np.ndarray]) -> None:
        self.weights = [np.asarray(w, dtype=np.int64) for w in weights]
        self._weights_f64 = [w.astype(np.float64) for w in self.weights]
        self._weights_obj = [None] * len(self.weights)
        self.row_bounds = [
            int(np.abs(w.astype(object)).sum(axis=1).max()) for w in self.weights
        ]
        #: Stage-columns computed in each arithmetic, for the ledger.
        self.columns_by_dtype = {"float64": 0, "int64": 0, "object": 0}

    def stage(self, index: int, x: np.ndarray) -> np.ndarray:
        """Exact output of one stage; int64 when it fits, object otherwise."""
        bound = self.row_bounds[index]
        peaks = column_peaks(x)
        tiers = np.array(
            [0 if bound * p < FLOAT64_EXACT else 1 if bound * p < INT64_EXACT else 2
             for p in peaks],
            dtype=np.int8,
        )
        n = self.weights[index].shape[0]
        wide = bool((tiers == 2).any())
        out = np.empty((n, x.shape[1]), dtype=object if wide else np.int64)
        for tier, name in enumerate(("float64", "int64", "object")):
            cols = np.flatnonzero(tiers == tier)
            if cols.size == 0:
                continue
            self.columns_by_dtype[name] += int(cols.size)
            part = x[:, cols]
            if tier == 0:
                y = np.rint(self._weights_f64[index] @ part.astype(np.float64)).astype(np.int64)
            elif tier == 1:
                y = self._int64_product(index, bound, part.astype(np.int64))
            else:
                if self._weights_obj[index] is None:
                    self._weights_obj[index] = self.weights[index].astype(object)
                y = self._weights_obj[index] @ part.astype(object)
            out[:, cols] = y
        return out

    def _int64_product(self, index: int, bound: int, x: np.ndarray) -> np.ndarray:
        """``w @ x`` for columns certified below 2**63."""
        peak = max(column_peaks(x), default=0)
        shift = max(0, 52 - bound.bit_length())
        hi = x >> shift
        lo = x - (hi << shift)  # 0 <= lo < 2**shift
        if bound * peak < (1 << 62) and bound * max(column_peaks(hi), default=0) < FLOAT64_EXACT:
            w = self._weights_f64[index]
            hi_part = np.rint(w @ hi.astype(np.float64)).astype(np.int64)
            lo_part = np.rint(w @ lo.astype(np.float64)).astype(np.int64)
            return (hi_part << shift) + lo_part
        return self.weights[index] @ x

    def run(self, x: np.ndarray) -> List[np.ndarray]:
        """Exact output of every stage for the columns of ``x``."""
        outputs = []
        for index in range(len(self.weights)):
            x = self.stage(index, x)
            outputs.append(x)
        return outputs


def digest(values: np.ndarray) -> Optional[bytes]:
    """128-bit digest of an integer matrix's values, or ``None`` when some
    value is not an integer that int64 holds (such an output is never exact
    for a chain whose exact output fits int64)."""
    values = np.asarray(values)
    if values.dtype != np.int64:
        try:
            with np.errstate(invalid="ignore"):
                as_int64 = values.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
        if not np.array_equal(as_int64, values):
            return None
        values = as_int64
    h = hashlib.blake2b(repr(values.shape).encode(), digest_size=16)
    h.update(np.ascontiguousarray(values).tobytes())
    return h.digest()


def matches(served_digest: Optional[bytes], exact: np.ndarray) -> bool:
    """Whether a served output, known by its :func:`digest`, equals the exact
    output.  An exact output beyond int64 matches nothing an int64 server can
    return."""
    return served_digest is not None and served_digest == digest(exact)
