"""Process-sharded execution tier: N worker processes around one plan.

Threads cannot scale Python compute past the GIL, so the
:class:`~repro.serving.server.Server` grows an ``execution="processes"``
mode backed by this pool: each **shard** is one worker process holding its
own unpickled :class:`~repro.serving.ModelPlan` replica, fed through a
:class:`~repro.serving.shm.ShmRing` so activation and result payloads cross
the process boundary through shared memory, never through pickle.

Division of labour:

* the **parent** keeps everything stateful: the request queue, micro-batch
  coalescing, deadlines, retries, the degraded oracle fallback and all
  accounting.  One parent worker thread is pinned to each shard and drives
  it synchronously: write activations into a ring slot, push a descriptor,
  block on the result descriptor, copy the outputs out, release the slot;
* the **child** is deliberately dumb: read descriptors, execute
  ``plan.run_batch``, write outputs back into the same slot, reply.  A child
  that dies (injected crash, OOM kill, segfault) simply stops replying —
  :meth:`ProcessWorkerPool.execute` detects the death and raises
  :class:`~repro.errors.WorkerCrashError`, which the server's existing
  crash path turns into requeue + supervised restart, now of the *process*
  (a restarted shard gets a fresh ring and queues so stale descriptors can
  never corrupt a reused slot).

Fault injection crosses the boundary by value: each shard receives a pickled
:meth:`~repro.serving.faults.FaultInjector.for_shard` clone whose hook
counters are pre-advanced by the number of batches the shard already
consumed, so scripted crash indices fire once across restarts, exactly like
the shared-injector semantics of the thread tier.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.metrics import OpCounts
from ..errors import ServingError, WorkerCrashError
from .faults import FaultInjector
from .plan import ModelPlan
from .shm import ArraySpec, ShmRing

#: Poll interval while waiting on a shard's result queue; each poll also
#: checks the worker process is still alive, bounding crash-detection latency.
_RESULT_POLL_S = 0.05

#: How long a graceful shutdown waits for a shard before terminating it.
_JOIN_TIMEOUT_S = 5.0

#: Exit code a shard uses for an injected hard crash (mirrors a real kill).
_CRASH_EXIT_CODE = 17


@dataclass(eq=False)
class ShardResult:
    """One executed batch as it returns from a shard."""

    outputs: List[np.ndarray]
    op_counts: OpCounts
    #: Engine-pass seconds measured inside the child.
    compute_s: float
    #: ``"shm"`` when the payload travelled through the ring, ``"inline"``
    #: when it fell back to queue (pickle) transport.
    transport: str


@dataclass
class _Shard:
    """Parent-side handle of one worker process."""

    index: int
    process: Optional[multiprocessing.process.BaseProcess] = None
    work_queue: Optional[object] = None
    result_queue: Optional[object] = None
    ring: Optional[ShmRing] = None
    #: Batches pushed to this shard across all of its incarnations; also the
    #: fault-hook offset a restarted incarnation resumes from.
    dispatched: int = 0
    restarts: int = 0
    batches: int = 0
    requests: int = 0
    compute_s: float = 0.0
    dispatch_s: float = 0.0
    shm_fallbacks: int = 0
    #: Plan replicas hot-swapped into the live child (restart reloads do not
    #: count; they unpickle whatever blob is current).
    swaps: int = 0
    #: Engine-pass seconds per layer served by this shard (feeds the
    #: per-pipeline-stage occupancy breakdown in process mode).
    layer_compute_s: Dict[str, float] = field(default_factory=dict)
    _seq: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ProcessWorkerPool:
    """Fixed set of plan-replica worker processes with shared-memory I/O.

    Parameters
    ----------
    plan:
        The compiled plan; pickled once and shipped to every shard.
    num_shards:
        Worker process count.  The server pins parent worker thread ``i`` to
        shard ``i``.
    max_batch_columns:
        Ring slots are sized to carry one batch of up to this many activation
        columns (plus its outputs) for the widest layer; a larger batch
        transparently falls back to queue transport and is counted in
        ``shm_fallbacks``.
    num_slots:
        Ring depth per shard (2 = double buffering).
    faults:
        Parent's injector; each shard gets a decorrelated pickled clone.
    start_method:
        ``"spawn"`` (default) is safe under a threaded parent; ``"fork"`` is
        faster to start but inherits parent threads' locks mid-state — only
        use it from single-threaded setup code.
    """

    def __init__(
        self,
        plan: ModelPlan,
        *,
        num_shards: int,
        max_batch_columns: int = 64,
        num_slots: int = 2,
        faults: Optional[FaultInjector] = None,
        start_method: str = "spawn",
    ) -> None:
        if num_shards < 1:
            raise ServingError(f"num_shards must be >= 1, got {num_shards}")
        if max_batch_columns < 1:
            raise ServingError(
                f"max_batch_columns must be >= 1, got {max_batch_columns}"
            )
        self.plan = plan
        self.num_shards = num_shards
        self.num_slots = num_slots
        self.faults = faults
        self._ctx = multiprocessing.get_context(start_method)
        self._plan_blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        bytes_per_column = max(
            (layer.shape.k + layer.shape.n) * 8
            for layer in (plan.layer(name) for name in plan.layer_names())
        )
        self.slot_bytes = bytes_per_column * max_batch_columns
        self._shards = [_Shard(index=i) for i in range(num_shards)]
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def ensure_shard(self, index: int) -> None:
        """Start (or restart) shard ``index`` if its process is not alive.

        A restart tears down the previous incarnation's ring and queues and
        builds fresh ones: a descriptor the dead child never consumed must
        not be replayed into a recycled slot by its successor.
        """
        shard = self._shard(index)
        with shard.lock:
            if self._closed:
                raise ServingError("process pool has been closed")
            if shard.alive:
                return
            restarted = shard.process is not None
            self._teardown_transport(shard)
            shard.ring = ShmRing(
                slot_bytes=self.slot_bytes,
                num_slots=self.num_slots,
                tag=f"shard{index}",
            )
            shard.work_queue = self._ctx.Queue()
            shard.result_queue = self._ctx.Queue()
            fault_blob = None
            if self.faults is not None:
                fault_blob = pickle.dumps(
                    self.faults.for_shard(
                        index,
                        dispatch_offset=shard.dispatched,
                        batch_offset=shard.dispatched,
                    )
                )
            shard.process = self._ctx.Process(
                target=_shard_main,
                name=f"serving-shard-{index}",
                args=(
                    index,
                    self._plan_blob,
                    shard.ring.name,
                    self.slot_bytes,
                    self.num_slots,
                    shard.work_queue,
                    shard.result_queue,
                    fault_blob,
                ),
                daemon=True,
            )
            shard.process.start()
            if restarted:
                shard.restarts += 1

    def close(self, join_timeout_s: Optional[float] = None) -> None:
        """Stop every shard (sentinel first, terminate stragglers), free shm.

        ``join_timeout_s`` overrides the per-shard join grace (default
        ``_JOIN_TIMEOUT_S``); a force-aborting server passes a short one so
        wedged shards are terminated promptly instead of waited out.
        """
        if self._closed:
            return
        self._closed = True
        grace = join_timeout_s if join_timeout_s is not None else _JOIN_TIMEOUT_S
        for shard in self._shards:
            with shard.lock:
                if shard.work_queue is not None and shard.alive:
                    try:
                        shard.work_queue.put(None)
                    except (OSError, ValueError):  # queue already broken
                        pass
        for shard in self._shards:
            with shard.lock:
                if shard.process is not None:
                    shard.process.join(timeout=grace)
                    if shard.process.is_alive():
                        shard.process.terminate()
                        shard.process.join(timeout=grace)
                self._teardown_transport(shard)

    def __enter__(self) -> "ProcessWorkerPool":
        for index in range(self.num_shards):
            self.ensure_shard(index)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _teardown_transport(self, shard: _Shard) -> None:
        """Drop a (dead) incarnation's ring and queues; caller holds the lock."""
        if shard.ring is not None:
            shard.ring.close()
            shard.ring = None
        for attr in ("work_queue", "result_queue"):
            q = getattr(shard, attr)
            if q is not None:
                try:
                    q.close()
                    q.cancel_join_thread()
                except (OSError, ValueError):  # pragma: no cover - defensive
                    pass
                setattr(shard, attr, None)

    def swap_plan(self, plan: ModelPlan) -> None:
        """Install a new plan replica in every live shard (rings kept).

        Each shard gets a ``swap`` message carrying the re-pickled plan; the
        child unpickles and prewarms the replica before acknowledging, so the
        first post-swap batch pays no compile latency.  The blob is updated
        *first*, so a shard that is dead (or dies mid-swap) simply loads the
        new plan when its supervised restart respawns it.  The caller
        (``Server.swap_plan``) guarantees no batch is in flight, so the swap
        message never races an execution reply.
        """
        if self._closed:
            raise ServingError("process pool has been closed")
        blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        self.plan = plan
        self._plan_blob = blob
        for shard in self._shards:
            with shard.lock:
                if not shard.alive:
                    continue  # its restart unpickles the new blob anyway
                shard._seq += 1
                seq = shard._seq
                work_queue, result_queue = shard.work_queue, shard.result_queue
            work_queue.put(("swap", seq, None, blob))
            try:
                kind, payload = self._await_result(shard, result_queue, seq)
            except WorkerCrashError:
                continue  # died mid-swap: restart loads the new blob
            if kind == "err":
                raise payload
            with shard.lock:
                shard.swaps += 1

    def _shard(self, index: int) -> _Shard:
        if not 0 <= index < self.num_shards:
            raise ServingError(
                f"shard index must be in [0, {self.num_shards}), got {index}"
            )
        return self._shards[index]

    # ------------------------------------------------------------ execution
    def execute(
        self, index: int, layer: str, activations: Sequence[np.ndarray]
    ) -> ShardResult:
        """Run one same-layer batch on shard ``index`` and block for results.

        Raises :class:`~repro.errors.WorkerCrashError` when the shard process
        dies mid-batch (the server requeues and restarts), and re-raises any
        execution error the child reports (the server's retry policy and
        degraded fallback apply, unchanged from the thread tier).
        """
        shard = self._shard(index)
        if not activations:
            raise ServingError("cannot execute an empty batch on a shard")
        if not shard.alive:
            raise WorkerCrashError(
                f"shard {index} process is not running (crashed or never started)"
            )
        started = time.perf_counter()
        with shard.lock:
            shard._seq += 1
            seq = shard._seq
            ring, work_queue, result_queue = (
                shard.ring, shard.work_queue, shard.result_queue
            )
        slot: Optional[int] = None
        specs: Optional[List[ArraySpec]] = None
        if ring is not None:
            slot = ring.acquire(timeout=0.2)
            if slot is not None:
                try:
                    specs = ring.write_arrays(slot, activations)
                except ServingError:  # batch larger than a slot: go inline
                    ring.release(slot)
                    slot = None
        try:
            if specs is not None:
                work_queue.put(("shm", seq, layer, specs))
            else:
                shard.shm_fallbacks += 1
                work_queue.put(
                    ("inline", seq, layer, [np.asarray(a) for a in activations])
                )
            shard.dispatched += 1
            kind, payload = self._await_result(shard, result_queue, seq)
            if kind == "err":
                raise payload
            out_specs, op_counts, compute_s = payload
            if out_specs and isinstance(out_specs[0], ArraySpec):
                outputs = [ring.read_array(spec, copy=True) for spec in out_specs]
                transport = "shm"
            else:
                outputs = list(out_specs)
                transport = "inline"
            roundtrip = time.perf_counter() - started
            with shard.lock:
                shard.batches += 1
                shard.requests += len(activations)
                shard.compute_s += compute_s
                shard.dispatch_s += max(roundtrip - compute_s, 0.0)
                shard.layer_compute_s[layer] = (
                    shard.layer_compute_s.get(layer, 0.0) + compute_s
                )
            return ShardResult(
                outputs=outputs,
                op_counts=op_counts,
                compute_s=compute_s,
                transport=transport,
            )
        finally:
            if slot is not None:
                ring.release(slot)

    def _await_result(self, shard: _Shard, result_queue, seq: int):
        """Poll for this dispatch's reply, watching for process death."""
        while True:
            try:
                message = result_queue.get(timeout=_RESULT_POLL_S)
            except queue_module.Empty:
                if not shard.alive:
                    code = (
                        shard.process.exitcode if shard.process is not None else None
                    )
                    raise WorkerCrashError(
                        f"shard {shard.index} process died mid-batch "
                        f"(exit code {code})"
                    ) from None
                continue
            kind, got_seq, *rest = message
            if got_seq != seq:
                continue  # stale reply from a pre-crash dispatch
            if kind == "err":
                return "err", rest[0]
            return "ok", tuple(rest)

    # ----------------------------------------------------------- accounting
    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard counters for the serving report."""
        stats: List[Dict[str, object]] = []
        for shard in self._shards:
            with shard.lock:
                stats.append(
                    {
                        "shard": shard.index,
                        "alive": shard.alive,
                        "batches": shard.batches,
                        "requests": shard.requests,
                        "compute_s": shard.compute_s,
                        "dispatch_s": shard.dispatch_s,
                        "restarts": shard.restarts,
                        "shm_fallbacks": shard.shm_fallbacks,
                        "plan_swaps": shard.swaps,
                        "layer_compute_s": dict(shard.layer_compute_s),
                    }
                )
        return stats

    def alive_shards(self) -> int:
        """Number of currently-running shard processes."""
        return sum(1 for shard in self._shards if shard.alive)


# --------------------------------------------------------------- child side
def _shard_main(
    index: int,
    plan_blob: bytes,
    ring_name: str,
    slot_bytes: int,
    num_slots: int,
    work_queue,
    result_queue,
    fault_blob: Optional[bytes],
) -> None:
    """Worker-process entry: unpickle the plan replica and serve descriptors.

    Runs until it receives the ``None`` sentinel (graceful close), the work
    queue breaks (parent died), or an injected
    :class:`~repro.errors.WorkerCrashError` hard-exits the process — which
    deliberately skips all cleanup, exactly like a real SIGKILL, so the
    parent's crash detection and orphan handling get exercised for real.
    """
    plan: ModelPlan = pickle.loads(plan_blob)
    # Prewarm every layer once: BLAS initialisation and paging in the
    # unpickled weights belong to shard startup (supervised, off the hot
    # path), not to the first unlucky batch.
    for layer_name in plan.layer_names():
        shape = plan.layer(layer_name).shape
        plan.run(layer_name, np.zeros((shape.k, 1), dtype=np.int64))
    faults: Optional[FaultInjector] = (
        pickle.loads(fault_blob) if fault_blob is not None else None
    )
    ring = ShmRing.attach(ring_name, slot_bytes=slot_bytes, num_slots=num_slots)
    try:
        while True:
            try:
                item = work_queue.get()
            except (EOFError, OSError):  # parent went away
                return
            if item is None:
                return
            kind, seq, layer, payload = item
            if kind == "swap":
                # Hot plan swap: replace the replica and prewarm it before
                # acknowledging.  Fault hooks deliberately do not fire — a
                # swap is control-plane traffic, not a served batch.
                try:
                    plan = pickle.loads(payload)
                    for layer_name in plan.layer_names():
                        shape = plan.layer(layer_name).shape
                        plan.run(
                            layer_name, np.zeros((shape.k, 1), dtype=np.int64)
                        )
                    result_queue.put(("ok", seq, [], None, 0.0))
                except Exception as error:  # noqa: BLE001 - shipped to parent
                    result_queue.put(("err", seq, error))
                continue
            try:
                if faults is not None:
                    try:
                        faults.on_dispatch(f"serving-shard-{index}")
                    except WorkerCrashError:
                        # Hard death, no goodbye: mirrors a real kill.
                        os._exit(_CRASH_EXIT_CODE)
                if kind == "shm":
                    activations = [
                        ring.read_array(spec, copy=False) for spec in payload
                    ]
                    result_base = payload[-1].end
                else:
                    activations = payload
                    result_base = None
                if faults is not None:
                    faults.on_batch(layer, len(activations))
                compute_start = time.perf_counter()
                report = plan.run_batch(layer, activations)
                compute_s = time.perf_counter() - compute_start
                out_payload: Sequence = report.outputs
                if result_base is not None:
                    try:
                        out_payload = ring.write_arrays(
                            payload[0].slot, report.outputs, base_offset=result_base
                        )
                    except ServingError:
                        pass  # outputs outgrew the slot: reply inline
                result_queue.put(("ok", seq, out_payload, report.op_counts, compute_s))
            except Exception as error:  # noqa: BLE001 - shipped to the parent
                try:
                    result_queue.put(("err", seq, error))
                except Exception:  # noqa: BLE001 - unpicklable error payload
                    result_queue.put(
                        ("err", seq, ServingError(
                            f"shard {index} failed on layer '{layer}' with an "
                            f"unpicklable {type(error).__name__}: {error}"
                        ))
                    )
    finally:
        ring.close()
