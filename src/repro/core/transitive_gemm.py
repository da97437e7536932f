"""Functional transitive-sparsity GEMM engine.

This is the algorithmic heart of the paper in executable form: a GEMM that
never multiplies.  The weight matrix is bit-sliced into TransRows, the
scoreboard organises them into prefix-reuse trees, and every TransRow's partial
result is obtained from its prefix's result plus a single extra input row
(or, for outliers, a handful of raw additions).  Because integer addition is
associative, the result is bit-identical to ``weight @ activation`` — the
engine asserts nothing silently and exposes exact operation counts so the
architectural simulator and the design-space exploration share one source of
truth.

Two execution paths produce identical outputs and identical
:class:`~repro.core.metrics.OpCounts`:

* the **scalar oracle** (``fast=False``) walks every chunk's Hasse lattice
  with per-node Python objects — slow, but a direct transcription of the
  paper's algorithms and the reference everything else is tested against;
* the **vectorized fast path** (``fast=True``, the default) packs all column
  chunks at once, scoreboards them in one batched array pass
  (:mod:`repro.scoreboard.batched`), materialises every prefix-reuse partial
  sum level-by-level with fancy-indexed gather-adds across chunks, and folds
  the TransRow results into the output with array reductions.  A small LRU
  cache keyed on the weight matrix lets repeated :meth:`multiply` calls over
  new activations skip bit-slicing and scoreboarding entirely.

On top of both, :meth:`TransitiveGemmEngine.plan` compiles a weight matrix
**once, offline** into a :class:`GemmPlan`: the weight codes in their
narrowest integer dtype, the scoreboard's exact OpCounts, read-only float32
and float64 copies of the weights and their static row bound
``B = max_row sum|w|`` — 13 bytes per INT8 (or narrower) weight.  The packed
TransRows exist only while ``plan()`` counts operations.  Planned execution
(:meth:`TransitiveGemmEngine.multiply_planned`,
:meth:`TransitiveGemmEngine.multiply_many`) serves ``weight @ activation``
through :func:`exact_matmul`, which picks the fastest arithmetic the bound
proves exact for each batch; the outputs are bit-identical to the scalar
oracle and carry the plan's exact operation counts.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bitslice.slicer import bit_plane_weights, bit_slice
from ..bitslice.packing import pack_bits_to_uint, pack_transrows
from ..errors import BitSliceError, SimulationError
from ..hasse.graph import hasse_graph
from ..scoreboard.algorithm import ScoreboardResult, run_scoreboard
from ..scoreboard.batched import (
    BatchedScoreboard,
    batched_total_op_counts,
    results_from_batch,
    run_scoreboard_batch,
)
from .metrics import OpCounts, op_counts_from_result

#: Soft cap (bytes) on the fast path's per-block scratch arrays; chunks are
#: processed in blocks sized so the node-result tensor and the per-plane
#: gathers stay within this budget.
_FAST_BLOCK_BUDGET_BYTES = 64 * 1024 * 1024

#: Mantissa bits of the float32 and float64 BLAS products: every integer of
#: magnitude below ``2**mantissa`` is exact in that float type.
_FLOAT32_MANTISSA = 24
_FLOAT64_MANTISSA = 53
_INT64_EXACT = 1 << 63
#: Cost model of one stacked BLAS call, from the float32/float64 column sweep
#: of ``benchmarks/bench_perf_gemm.py``: GEMM time stays nearly flat up to
#: this many columns (the weights are read once either way) ...
_FLAT_COLUMNS = 16
#: ... and beyond it a float32 column costs at most 1/this of a float64 one.
_FLOAT32_COLUMNS_PER_FLOAT64 = 2


@dataclass
class TransitiveGemmReport:
    """Result and statistics of one transitive GEMM execution."""

    output: np.ndarray
    op_counts: OpCounts
    chunk_results: List[ScoreboardResult] = field(default_factory=list)

    @property
    def density(self) -> float:
        """Overall density (fraction of bit-serial dense adds executed)."""
        return self.op_counts.density


@dataclass(frozen=True)
class ScoreboardCacheInfo:
    """Hit/miss statistics of the engine's static-scoreboard cache."""

    hits: int
    misses: int
    entries: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True, eq=False)
class GemmPlan:
    """Precompiled state of one weight matrix: what serving and the cost
    model read, nothing more.

    This is the offline half of the paper's *static scoreboard* serving mode
    made explicit: the weights are bit-sliced, packed and scoreboarded exactly
    once, and only the merged :class:`~repro.core.metrics.OpCounts` are kept.
    ``weight`` holds the codes in the narrowest signed integer dtype of
    ``weight_bits`` (int8 up to 8 bits, int16 up to 16, ...).  Online
    execution against the plan (:meth:`TransitiveGemmEngine.multiply_planned`
    and :meth:`TransitiveGemmEngine.multiply_many`) skips weight
    fingerprinting, bit-slicing and scoreboarding entirely and goes straight
    to the product itself, which is what a serving runtime needs on its
    per-request hot path.

    The product runs through :func:`exact_matmul` on ``weight_f32`` or
    ``weight_f64``, read-only float copies of the weights, certified exact by
    the static row bound ``row_bound = max_row sum|w|`` (a Python int).
    Outputs stay bit-identical to the scalar oracle and the OpCounts stay the
    scoreboard's.  An INT8 plan pins 13 bytes per weight (1 + 4 + 8).
    """

    weight: np.ndarray
    weight_bits: int
    transrow_bits: int
    max_distance: int
    op_counts: OpCounts
    weight_f32: np.ndarray
    weight_f64: np.ndarray
    row_bound: int
    #: Seconds spent building the float copies and ``row_bound``.
    kernel_build_s: float = 0.0

    @property
    def kernel_bytes(self) -> int:
        """Bytes of the two pinned float weight copies."""
        return self.weight_f32.nbytes + self.weight_f64.nbytes

    @property
    def n(self) -> int:
        """Output rows (weight rows)."""
        return int(self.weight.shape[0])

    @property
    def k(self) -> int:
        """Reduction dimension (weight columns / activation rows)."""
        return int(self.weight.shape[1])


def _code_dtype(weight_bits: int) -> type:
    """Narrowest signed integer dtype holding ``weight_bits``-bit codes."""
    return next(
        dtype for dtype in (np.int8, np.int16, np.int32, np.int64)
        if weight_bits <= np.iinfo(dtype).bits
    )


def _row_bound(weight: np.ndarray) -> int:
    """``max_row sum|w|`` as a Python int (0 for an empty matrix)."""
    if weight.size == 0:
        return 0
    peak = max(int(weight.max()), -int(weight.min()))
    if peak * weight.shape[1] < _INT64_EXACT:  # the int64 row sums cannot wrap
        return int(np.abs(weight, dtype=np.int64).sum(axis=1).max())
    return int(np.abs(weight.astype(object)).sum(axis=1).max())


def _peak(x: np.ndarray) -> int:
    """Largest magnitude in ``x`` as a Python int (int64 min included)."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _limb_count(bound: int, peak: int, mantissa: int) -> Optional[int]:
    """Fewest limbs for which ``mantissa``-bit float products are exact.

    Limbs are ``s = mantissa - bitlen(bound)`` bits wide: the low limbs
    ``(x >> s*i) & (2**s - 1)`` lie in ``[0, 2**s)``, so ``bound * (2**s - 1)
    < 2**mantissa`` bounds every partial sum of their products; the signed top
    limb ``x >> s*(L-1)`` is bounded by ``ceil(peak / 2**(s*(L-1)))``, and
    ``L`` is the smallest count that keeps ``bound`` times that below
    ``2**mantissa`` too.  ``None`` when no limb width is exact (``s < 1``).
    """
    limit = 1 << mantissa
    if bound * peak < limit:
        return 1
    shift = mantissa - bound.bit_length()
    if shift < 1:
        return None
    limbs = 2
    while bound * -(-peak >> (shift * (limbs - 1))) >= limit:
        limbs += 1
    return limbs


def exact_matmul(plan: GemmPlan, x: np.ndarray) -> np.ndarray:
    """``plan.weight @ x`` for an int64 ``x``, exact wherever int64 holds it.

    The arithmetic is chosen per call from the plan's row bound ``B`` and the
    batch's peak ``p = max|x|``.  ``x`` is cut into ``L`` limbs of ``s`` bits
    (see :func:`_limb_count`) whose products are exact in a float of mantissa
    ``m``: 24 bits on ``plan.weight_f32``, 53 on ``plan.weight_f64``.  The
    ``L`` limbs of the ``c`` columns go side by side into **one** BLAS call of
    ``L * c`` columns, and ``sum_i (W @ limb_i) << s*i`` is added in uint64,
    which wraps exactly like the int64 product does.

    float32 runs iff ``max(L32 * c, 16) <= 2 * max(L64 * c, 16)`` (or float64
    has no exact split): a call costs about the same up to 16 columns, and a
    float32 column at most half a float64 one beyond.  When neither width
    splits exactly (``bitlen(B) >= 53`` and ``B * p >= 2**53``) the int64
    product runs instead, wrapping modulo ``2**64`` like every other int64
    path in the library.
    """
    columns = x.shape[1]
    peak = _peak(x)
    bound = plan.row_bound
    limbs32 = _limb_count(bound, peak, _FLOAT32_MANTISSA)
    limbs64 = _limb_count(bound, peak, _FLOAT64_MANTISSA)
    if limbs32 is not None and (
        limbs64 is None
        or max(limbs32 * columns, _FLAT_COLUMNS)
        <= _FLOAT32_COLUMNS_PER_FLOAT64 * max(limbs64 * columns, _FLAT_COLUMNS)
    ):
        weight, limbs, mantissa = plan.weight_f32, limbs32, _FLOAT32_MANTISSA
    elif limbs64 is not None:
        weight, limbs, mantissa = plan.weight_f64, limbs64, _FLOAT64_MANTISSA
    else:
        return np.asarray(plan.weight, dtype=np.int64) @ x
    if limbs == 1:
        return (weight @ x.astype(weight.dtype)).astype(np.int64)
    shift = mantissa - bound.bit_length()
    stacked = np.empty((x.shape[0], limbs * columns), dtype=weight.dtype)
    for i in range(limbs - 1):
        stacked[:, i * columns:(i + 1) * columns] = (x >> (shift * i)) & ((1 << shift) - 1)
    stacked[:, (limbs - 1) * columns:] = x >> (shift * (limbs - 1))
    parts = (weight @ stacked).astype(np.int64).view(np.uint64)
    output = parts[:, :columns].copy()
    for i in range(1, limbs):
        output += parts[:, i * columns:(i + 1) * columns] << np.uint64(shift * i)
    return output.view(np.int64)


@dataclass(eq=False)
class BatchedGemmReport:
    """Result of one micro-batched multi-activation execution.

    ``outputs[i]`` is ``weight @ activations[i]`` for the plan's weight; all
    activations were folded into a single engine pass, so the scoreboard work
    (captured by ``op_counts``, which depends only on the weights) was spent
    once for the whole batch.
    """

    outputs: List[np.ndarray]
    op_counts: OpCounts

    @property
    def batch_size(self) -> int:
        """Number of coalesced activations."""
        return len(self.outputs)

    @property
    def total_columns(self) -> int:
        """Total activation columns across the batch."""
        return sum(int(out.shape[1]) for out in self.outputs)


class _StaticScoreboardCache:
    """LRU cache of (packed TransRows, merged OpCounts) per weight matrix.

    The key fingerprints the weight bytes plus every parameter that affects
    scoreboarding, so a hit is guaranteed to reproduce the exact chunk values
    and operation counts of a fresh run.  Only
    :meth:`TransitiveGemmEngine.multiply` uses it; a :class:`GemmPlan` keeps
    its counts and drops the TransRows.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # The serving runtime shares one engine across worker threads; the
        # lock keeps lookup/insert/evict transitions atomic.
        self._lock = threading.Lock()

    @staticmethod
    def key(weight: np.ndarray, weight_bits: int, width: int, max_distance: int) -> tuple:
        digest = hashlib.blake2b(
            np.ascontiguousarray(weight).tobytes(), digest_size=16
        ).hexdigest()
        return (digest, weight.shape, weight.dtype.str, weight_bits, width, max_distance)

    def get(self, key: tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, entry: tuple) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def info(self) -> ScoreboardCacheInfo:
        with self._lock:
            return ScoreboardCacheInfo(
                hits=self.hits,
                misses=self.misses,
                entries=len(self._entries),
                max_entries=self.max_entries,
            )


class TransitiveGemmEngine:
    """Multiplication-free GEMM through transitive result reuse.

    Parameters
    ----------
    transrow_bits:
        TransRow width ``T`` (the paper's final design uses 8).
    max_distance:
        Longest prefix chain before a TransRow is treated as an outlier.
    num_lanes:
        Lanes of the balanced forest; defaults to ``transrow_bits``.
    fast:
        Use the vectorized batched execution path (default).  ``False`` runs
        the scalar per-chunk reference implementation; both produce identical
        outputs and operation counts.
    scoreboard_cache_entries:
        Capacity of the static-scoreboard LRU cache used by the fast path.
        ``0`` disables caching (every call re-scoreboards the weights).
    """

    def __init__(
        self,
        transrow_bits: int = 8,
        max_distance: int = 4,
        num_lanes: Optional[int] = None,
        fast: bool = True,
        scoreboard_cache_entries: int = 4,
    ) -> None:
        if transrow_bits < 1 or transrow_bits > 16:
            raise SimulationError(
                f"transrow_bits must be in [1, 16], got {transrow_bits}"
            )
        if scoreboard_cache_entries < 0:
            raise SimulationError(
                f"scoreboard_cache_entries must be >= 0, got {scoreboard_cache_entries}"
            )
        self.transrow_bits = transrow_bits
        self.max_distance = max_distance
        self.num_lanes = num_lanes if num_lanes is not None else transrow_bits
        self.fast = fast
        self._cache = _StaticScoreboardCache(scoreboard_cache_entries)

    # ------------------------------------------------------------------ API
    def multiply(
        self,
        weight: np.ndarray,
        activation: np.ndarray,
        weight_bits: int,
        collect_chunks: bool = False,
    ) -> TransitiveGemmReport:
        """Compute ``weight @ activation`` through transitive sparsity.

        Parameters
        ----------
        weight:
            Signed integer matrix of shape ``(N, K)`` fitting in ``weight_bits``.
        activation:
            Integer matrix of shape ``(K, M)``.
        weight_bits:
            Two's-complement precision ``S`` of the weights.
        collect_chunks:
            Keep the per-column-chunk scoreboard results (useful for tests and
            the design-space analysis, costly for large GEMMs).
        """
        weight = np.asarray(weight)
        activation = np.asarray(activation, dtype=np.int64)
        if weight.ndim != 2 or activation.ndim != 2:
            raise SimulationError("weight and activation must both be 2-D matrices")
        if weight.shape[1] != activation.shape[0]:
            raise SimulationError(
                f"shape mismatch: weight {weight.shape} x activation {activation.shape}"
            )
        if self.fast:
            return self._multiply_fast(weight, activation, weight_bits, collect_chunks)
        return self._multiply_scalar(weight, activation, weight_bits, collect_chunks)

    def scoreboard_cache_info(self) -> ScoreboardCacheInfo:
        """Hit/miss statistics of the static-scoreboard cache."""
        return self._cache.info()

    # ---------------------------------------------------------- plan serving
    def plan(self, weight: np.ndarray, weight_bits: int) -> GemmPlan:
        """Precompute the static scoreboard of one weight matrix, offline.

        Packs the weights into TransRows once (:func:`pack_transrows`),
        scoreboards them, keeps the OpCounts and drops the packed TransRows.
        The returned :class:`GemmPlan` pins the weight codes in their
        narrowest integer dtype, the float32 and float64 weights and the row
        bound :func:`exact_matmul` serves from.  Executions against the handle
        (:meth:`multiply_planned`, :meth:`multiply_many`) skip the per-call
        weight fingerprint and all weight-side work.  The LRU cache of
        :meth:`multiply` is neither read nor filled.
        """
        weight = np.asarray(weight)
        if weight.ndim != 2:
            raise SimulationError("weight must be a 2-D matrix")
        if weight.shape[1] == 0 or weight.shape[0] == 0:
            raise SimulationError("cannot plan a weight matrix with a zero dimension")
        try:
            packed = pack_transrows(weight, weight_bits, self.transrow_bits)
        except BitSliceError as error:
            raise SimulationError(
                f"cannot plan {weight_bits}-bit weights: {error}"
            ) from error
        counts = batched_total_op_counts(
            packed.reshape(packed.shape[0], -1),
            width=self.transrow_bits,
            max_distance=self.max_distance,
        )
        del packed
        # pack_transrows range-checked every code against weight_bits, so the
        # narrowing cast cannot wrap; it also copies, so a caller-side
        # mutation after plan() cannot reach the plan.
        weight = weight.astype(_code_dtype(weight_bits))
        weight.setflags(write=False)
        start = time.perf_counter()
        weight_f32 = weight.astype(np.float32)
        weight_f32.setflags(write=False)
        weight_f64 = weight.astype(np.float64)
        weight_f64.setflags(write=False)
        row_bound = _row_bound(weight)
        return GemmPlan(
            weight=weight,
            weight_bits=weight_bits,
            transrow_bits=self.transrow_bits,
            max_distance=self.max_distance,
            op_counts=counts,
            weight_f32=weight_f32,
            weight_f64=weight_f64,
            row_bound=row_bound,
            kernel_build_s=time.perf_counter() - start,
        )

    def multiply_planned(
        self, plan: GemmPlan, activation: np.ndarray
    ) -> TransitiveGemmReport:
        """Compute ``plan.weight @ activation`` from the precompiled plan.

        The per-request hot path of the serving runtime: no hashing, no
        bit-slicing, no scoreboarding, just :func:`exact_matmul`.
        Bit-identical to :meth:`multiply` on the same operands.
        """
        self._check_plan(plan)
        activation = np.asarray(activation, dtype=np.int64)
        if activation.ndim != 2:
            raise SimulationError("activation must be a 2-D matrix")
        if activation.shape[0] != plan.k:
            raise SimulationError(
                f"shape mismatch: plan weight {plan.weight.shape} x "
                f"activation {activation.shape}"
            )
        return TransitiveGemmReport(
            output=exact_matmul(plan, activation), op_counts=plan.op_counts
        )

    def multiply_many(
        self,
        plan: GemmPlan,
        activations: Sequence[np.ndarray],
    ) -> BatchedGemmReport:
        """Serve a micro-batch of activations in one engine pass.

        The activations are concatenated along their column axis, executed as
        a single planned GEMM (see :meth:`multiply_planned`) and split back, so each output equals
        ``plan.weight @ activations[i]`` bit-exactly while the weight-side
        work is spent once for the whole batch.
        """
        self._check_plan(plan)
        if not activations:
            raise SimulationError("multiply_many needs at least one activation")
        arrays: List[np.ndarray] = []
        for index, activation in enumerate(activations):
            activation = np.asarray(activation, dtype=np.int64)
            if activation.ndim != 2:
                raise SimulationError(
                    f"activation {index} must be a 2-D matrix, got {activation.ndim}-D"
                )
            if activation.shape[0] != plan.k:
                raise SimulationError(
                    f"activation {index} has {activation.shape[0]} rows, "
                    f"plan expects {plan.k}"
                )
            arrays.append(activation)
        stacked = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=1)
        report = self.multiply_planned(plan, stacked)
        outputs: List[np.ndarray] = []
        offset = 0
        for activation in arrays:
            cols = activation.shape[1]
            # Copy each slice: handing out views would alias every request's
            # output to one shared batch array (and pin its full allocation).
            outputs.append(report.output[:, offset: offset + cols].copy())
            offset += cols
        return BatchedGemmReport(outputs=outputs, op_counts=report.op_counts)

    def _check_plan(self, plan: GemmPlan) -> None:
        if (
            plan.transrow_bits != self.transrow_bits
            or plan.max_distance != self.max_distance
        ):
            raise SimulationError(
                f"plan was compiled for T={plan.transrow_bits}, "
                f"max_distance={plan.max_distance}; this engine runs "
                f"T={self.transrow_bits}, max_distance={self.max_distance}"
            )

    # ------------------------------------------------------------ fast path
    def _multiply_fast(
        self,
        weight: np.ndarray,
        activation: np.ndarray,
        weight_bits: int,
        collect_chunks: bool,
    ) -> TransitiveGemmReport:
        """Batched array execution: one scoreboard pass for all chunks."""
        n_rows = weight.shape[0]
        n_cols = weight.shape[1]
        n_out_cols = activation.shape[1]
        width = self.transrow_bits
        num_chunks = (n_cols + width - 1) // width
        if num_chunks == 0:
            # Degenerate GEMM: validate the operands exactly like the scalar
            # path would, then return the empty report.
            pack_transrows(weight, weight_bits, width)
            return TransitiveGemmReport(
                output=np.zeros((n_rows, n_out_cols), dtype=np.int64),
                op_counts=self._empty_op_counts(),
            )

        packed, counts, batch = self._packed_transrows_cached(
            weight, weight_bits, want_batch=collect_chunks
        )

        chunk_results: List[ScoreboardResult] = []
        if collect_chunks:
            chunk_results = results_from_batch(batch, num_lanes=self.num_lanes)

        act_full = np.zeros((num_chunks * width, n_out_cols), dtype=np.int64)
        act_full[:n_cols] = activation
        act = act_full.reshape(num_chunks, width, n_out_cols)
        output = self._batched_node_results_and_accumulate(
            packed, act, bit_plane_weights(weight_bits), n_rows, n_out_cols
        )
        return TransitiveGemmReport(
            output=output, op_counts=counts, chunk_results=chunk_results
        )

    def _packed_transrows_cached(
        self, weight: np.ndarray, weight_bits: int, want_batch: bool = False
    ) -> Tuple[np.ndarray, OpCounts, Optional[BatchedScoreboard]]:
        """Packed ``(chunks, N, S)`` TransRow values and merged OpCounts.

        Both depend only on the weight matrix, so they are served from the
        static-scoreboard LRU cache whenever the same weights (same bytes,
        same parameters) are multiplied again.  With
        ``want_batch`` the full batched scoreboard state is returned as well
        (rebuilt from the cached packed values on a hit), so callers needing
        per-chunk results never scoreboard twice.
        """
        use_cache = self._cache.max_entries > 0
        key: Optional[tuple] = None
        packed: Optional[np.ndarray] = None
        counts: Optional[OpCounts] = None
        if use_cache:
            key = self._cache.key(
                weight, weight_bits, self.transrow_bits, self.max_distance
            )
            entry = self._cache.get(key)
            if entry is not None:
                if not want_batch:
                    return entry + (None,)
                packed, counts = entry
        if packed is None:
            packed = pack_transrows(weight, weight_bits, self.transrow_bits)
        bags = packed.reshape(packed.shape[0], -1)
        batch: Optional[BatchedScoreboard] = None
        if want_batch:
            batch = run_scoreboard_batch(
                bags, width=self.transrow_bits, max_distance=self.max_distance
            )
            if counts is None:
                counts = batch.total_op_counts()
        elif counts is None:
            # Counts-only pass: scoreboard in bounded blocks so wide lattices
            # (T = 16 -> 65536 nodes) never materialise per-chunk state for
            # the whole GEMM at once.
            counts = batched_total_op_counts(
                bags, width=self.transrow_bits, max_distance=self.max_distance
            )
        if use_cache and key is not None:
            self._cache.put(key, (packed, counts))
        return packed, counts, batch

    def _batched_node_results_and_accumulate(
        self,
        packed: np.ndarray,
        act: np.ndarray,
        plane_weights: np.ndarray,
        n_rows: int,
        n_out: int,
    ) -> np.ndarray:
        """PPE + APE stages as array passes, blocked over chunks.

        For each block of chunks the partial sum of **every** lattice node is
        materialised level-by-level: a node's result is one gather of its
        clear-lowest-bit parent's result plus one broadcast add of the input
        row that bit addresses — the prefix-reuse recurrence, batched across
        chunks.  The APE stage then gathers each TransRow's node result and
        reduces the shifted contributions into the output rows.
        """
        width = self.transrow_bits
        graph = hasse_graph(width)
        num_nodes = graph.num_nodes
        num_chunks = packed.shape[0]
        bits = packed.shape[2]
        parent, bit_position = graph.reuse_parent_table()
        # Packed values place the first input row at the most-significant bit,
        # so bit position b (LSB = 0) addresses input row T - 1 - b.
        input_row = width - 1 - bit_position

        output = np.zeros((n_rows, n_out), dtype=np.int64)
        bytes_per_chunk = (num_nodes + max(n_rows, 1)) * max(n_out, 1) * 8
        block = max(1, min(num_chunks, _FAST_BLOCK_BUDGET_BYTES // bytes_per_chunk))
        for start in range(0, num_chunks, block):
            stop = min(start + block, num_chunks)
            span = stop - start
            act_block = act[start:stop]
            results = np.zeros((span, num_nodes, n_out), dtype=np.int64)
            for level in range(1, width + 1):
                idx = graph.level_nodes_array(level)
                results[:, idx] = (
                    results[:, parent[idx]] + act_block[:, input_row[idx]]
                )
            vals = packed[start:stop]
            block_index = np.arange(span)[:, None]
            for s in range(bits):
                gathered = results[block_index, vals[:, :, s]]
                output += int(plane_weights[s]) * gathered.sum(axis=0)
        return output

    def _empty_op_counts(self) -> OpCounts:
        return OpCounts(
            width=self.transrow_bits, total_transrows=0, zero_rows=0, pr_ops=0,
            fr_ops=0, tr_ops=0, outlier_ops=0, set_bits=0,
        )

    # ---------------------------------------------------------- scalar path
    def _multiply_scalar(
        self,
        weight: np.ndarray,
        activation: np.ndarray,
        weight_bits: int,
        collect_chunks: bool,
    ) -> TransitiveGemmReport:
        """Reference oracle: per-chunk scalar scoreboard and accumulation."""
        n_rows, n_cols = weight.shape
        n_out_cols = activation.shape[1]
        width = self.transrow_bits
        planes = bit_slice(weight, weight_bits)
        plane_weights = bit_plane_weights(weight_bits)

        output = np.zeros((n_rows, n_out_cols), dtype=np.int64)
        total_counts: Optional[OpCounts] = None
        chunk_results: List[ScoreboardResult] = []

        num_chunks = (n_cols + width - 1) // width
        for chunk in range(num_chunks):
            start = chunk * width
            stop = min(start + width, n_cols)
            act_chunk = np.zeros((width, n_out_cols), dtype=np.int64)
            act_chunk[: stop - start] = activation[start:stop]

            values, sources = self._chunk_transrows(planes.planes, start, stop)
            result = run_scoreboard(
                values,
                width=width,
                max_distance=self.max_distance,
                num_lanes=self.num_lanes,
            )
            node_results = self._compute_node_results(result, act_chunk)
            self._accumulate(output, values, sources, plane_weights, node_results)

            counts = op_counts_from_result(result)
            total_counts = counts if total_counts is None else total_counts.merge(counts)
            if collect_chunks:
                chunk_results.append(result)

        if total_counts is None:
            total_counts = self._empty_op_counts()
        return TransitiveGemmReport(
            output=output, op_counts=total_counts, chunk_results=chunk_results
        )

    def _chunk_transrows(
        self, planes: np.ndarray, start: int, stop: int
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Packed TransRow values and their (weight row, bit plane) sources."""
        width = self.transrow_bits
        bits, n_rows, _ = planes.shape
        chunk_planes = np.zeros((bits, n_rows, width), dtype=np.uint8)
        chunk_planes[:, :, : stop - start] = planes[:, :, start:stop]
        packed = pack_bits_to_uint(chunk_planes.reshape(bits * n_rows, width))
        packed = packed.reshape(bits, n_rows)

        values: List[int] = []
        sources: List[Tuple[int, int]] = []
        for row in range(n_rows):
            for plane in range(bits):
                values.append(int(packed[plane, row]))
                sources.append((row, plane))
        return values, sources

    def _compute_node_results(
        self, result: ScoreboardResult, act_chunk: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Materialise the partial sum of every executed node via prefix reuse."""
        graph = hasse_graph(result.width)
        n_out = act_chunk.shape[1]
        node_results: Dict[int, np.ndarray] = {0: np.zeros(n_out, dtype=np.int64)}

        ordered = sorted(
            result.nodes.values(), key=lambda node: (graph.level(node.index), node.index)
        )
        for node in ordered:
            prefix_result = node_results.get(node.prefix)
            if prefix_result is None:
                raise SimulationError(
                    f"prefix {node.prefix} of node {node.index} was not computed first"
                )
            difference = node.index ^ node.prefix
            if bin(difference).count("1") != 1:
                raise SimulationError(
                    f"forest edge {node.prefix} -> {node.index} is not a single bit flip"
                )
            input_row = self._input_row_for_bit(act_chunk, difference)
            node_results[node.index] = prefix_result + input_row

        for outlier in result.outliers:
            total = np.zeros(n_out, dtype=np.int64)
            for bit_position in range(result.width):
                mask = 1 << bit_position
                if outlier.index & mask:
                    total = total + self._input_row_for_bit(act_chunk, mask)
            node_results[outlier.index] = total
        return node_results

    def _input_row_for_bit(self, act_chunk: np.ndarray, mask: int) -> np.ndarray:
        """Input row addressed by a single-bit TranSparsity mask.

        Packed values place the first input row at the most-significant bit, so
        bit position ``b`` (LSB = 0) addresses input row ``T - 1 - b``.
        """
        bit_position = mask.bit_length() - 1
        return act_chunk[self.transrow_bits - 1 - bit_position]

    def _accumulate(
        self,
        output: np.ndarray,
        values: List[int],
        sources: List[Tuple[int, int]],
        plane_weights: np.ndarray,
        node_results: Dict[int, np.ndarray],
    ) -> None:
        """APE stage: shift-and-accumulate every TransRow result into its row."""
        for value, (row, plane) in zip(values, sources):
            if value == 0:
                continue
            result = node_results.get(value)
            if result is None:
                raise SimulationError(f"TransRow value {value} was never computed")
            output[row] += int(plane_weights[plane]) * result


def transitive_gemm(
    weight: np.ndarray,
    activation: np.ndarray,
    weight_bits: int,
    transrow_bits: int = 8,
    max_distance: int = 4,
    fast: bool = True,
) -> np.ndarray:
    """Convenience wrapper returning only the GEMM result.

    Equivalent to ``weight @ activation`` for any integer inputs; the
    computation path goes through bit-slicing, scoreboarding and prefix reuse
    (vectorized by default; ``fast=False`` selects the scalar oracle).
    """
    engine = TransitiveGemmEngine(
        transrow_bits=transrow_bits, max_distance=max_distance, fast=fast
    )
    return engine.multiply(weight, activation, weight_bits).output
