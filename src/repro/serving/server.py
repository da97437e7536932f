"""Thread-pool serving runtime over a compiled :class:`ModelPlan`.

The server owns the bounded :class:`~repro.serving.queue.RequestQueue`, a pool
of supervised worker threads draining it through the
:class:`~repro.serving.batcher.MicroBatcher`, and the accounting that becomes
the :class:`~repro.serving.report.ServingReport`.  The flow is the classic
online-inference shape: clients :meth:`Server.submit` activations and receive
future-style :class:`~repro.serving.model_request.ModelRequest` handles; admission
control rejects work beyond ``max_pending`` with
:class:`~repro.errors.BackpressureError`; workers coalesce up to ``max_batch``
same-layer activations into one engine pass over the layer's precompiled
static scoreboard.

On top of that sits the fault-tolerance layer:

* **deadlines & cancellation** — ``submit(..., deadline_s=...)`` attaches a
  per-request deadline; expired requests are shed before dispatch with
  :class:`~repro.errors.DeadlineExceededError` and are never computed, and
  ``Request.cancel()`` abandons queued work;
* **retries & degraded mode** — transient batch failures are retried under
  the :class:`~repro.serving.policy.RetryPolicy`; when retries are exhausted
  (or the failure is not transient) each member of the batch is re-run alone
  through the exact scalar oracle (``fast=False``), so one poisoned request
  fails alone instead of failing its micro-batch;
* **supervision & health** — a supervisor thread restarts workers whose loop
  an exception escaped (their in-flight batch is requeued first), up to a
  restart budget, and :meth:`Server.health` exposes live liveness/counter
  state for monitoring;
* **fault injection** — an optional
  :class:`~repro.serving.faults.FaultInjector` hooks worker dispatch and the
  engine pass, powering the chaos test suite.

And on top of the fault-tolerance layer sits the **overload-resilience**
layer:

* **QoS priority lanes** — ``submit(..., priority=...)`` assigns each request
  a priority class; the queue serves lower classes first (EDF within a
  class), so interactive traffic overtakes bulk instead of FIFO-starving;
* **adaptive load shedding** — an
  :class:`~repro.serving.policy.AdmissionController` (default on) sheds
  deadline-doomed work at admission and at batch-claim time and browns out
  low-priority lanes as the queue fills, raising
  :class:`~repro.errors.ShedError` with a retry-after hint;
* **degraded-path circuit breaker** — a
  :class:`~repro.serving.policy.CircuitBreaker` (default on) around the
  scalar-oracle fallback: sustained fast-path failure trips it open and
  failing batches are shed fast instead of compounding the overload through
  the ~35x slower oracle;
* **zero-downtime plan swap** — :meth:`Server.swap_plan` drains in-flight
  batches to a plan-quiescent point and installs a shape-compatible new
  plan (weight update) without dropping or reordering a single admitted
  request.

There is one execution tier: the worker threads run the exact float-BLAS
product (:func:`~repro.core.exact_matmul`) themselves, which releases the GIL, and ``start()`` pins BLAS to one
thread so the workers do not oversubscribe the cores.

Every request is **whole-model**: ``submit(activation)`` routes one request
through *every* stage of the plan's :class:`~repro.serving.graph.ModelGraph`
(a one-layer plan without a graph serves as an implicit one-stage chain).
Each stage is an ordinary per-layer request flowing through the same
queue/batcher/worker machinery, so per-stage micro-batching comes for free
and different model requests occupy different pipeline stages concurrently —
layer ``k`` of request ``i`` overlaps layer ``k - 1`` of request ``i + 1``.
``stream=`` runs decode-style autoregressive steps (step ``t``'s output is
step ``t + 1``'s input) through the same pipeline.

Usage::

    plan = compile_workload(
        llama_block_gemms("llama1-7b"), graph="chain"
    )
    with Server(plan, num_workers=2, max_batch=16) as server:
        handles = [
            server.submit(act, deadline_s=5.0) for act in activations
        ]
        outputs = [handle.result(timeout=60.0) for handle in handles]
    print(server.report().render())
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..energy.breakdown import EnergyBreakdown
from ..errors import ServingError, ShedError, WorkerCrashError
from .batcher import BatchExecution, MicroBatcher
from .blas import pin_blas_threads
from .faults import FaultInjector
from .graph import ModelGraph
from .model_request import ModelRequest, SubmitOptions
from .plan import ModelPlan
from .policy import (
    DEFAULT_RETRY_POLICY,
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
    deadline_at,
)
from .queue import RequestQueue
from .report import ServingReport, ShardStats, StageStats, build_report
from .request import CANCELLED, DONE, EXPIRED, FAILED, SHED, Request

#: Exactly-representable-in-float bound for validating float activations.
_FLOAT_EXACT_INT_BOUND = float(2**53)


def _reject_layer_name(activation: object) -> None:
    """Fail fast on the removed per-layer call ``submit(layer, activation)``."""
    if isinstance(activation, str):
        raise TypeError(
            f"submit() takes the activation first, got the string "
            f"{activation!r}; requests are whole-model, so serve a one-layer "
            f"plan or compile the plan with graph=..."
        )


@dataclass(frozen=True)
class _RequestRecord:
    """Scalar accounting snapshot of a finished request.

    The server keeps these instead of the :class:`Request` objects so a
    long-running ("serve forever") process never pins the per-request
    activation/output arrays in its accounting state.
    """

    layer: str
    columns: int
    state: str
    submitted_at: float
    finished_at: float
    latency_s: float
    queue_delay_s: float
    retries: int
    degraded: bool
    priority: int = 0
    #: Completed (state ``done``) inside its deadline budget (trivially true
    #: for completions without a deadline) — the goodput numerator.
    deadline_met: bool = False


@dataclass(frozen=True)
class _ModelRecord:
    """Scalar accounting snapshot of a finished whole-model request."""

    state: str
    latency_s: float
    steps: int
    priority: int = 0
    deadline_met: bool = False


@dataclass
class _WorkerSlot:
    """One supervised worker position in the pool (thread may be replaced)."""

    index: int
    thread: Optional[threading.Thread] = None
    inflight: Optional[List[Request]] = None
    crash_errors: List[BaseException] = field(default_factory=list)
    dead: bool = False
    finished: bool = False
    # Utilization counters, reported as this worker's ShardStats.
    batches: int = 0
    requests: int = 0
    compute_s: float = 0.0
    dispatch_s: float = 0.0

    @property
    def name(self) -> str:
        return f"serving-worker-{self.index}"

    @property
    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


@dataclass(frozen=True)
class ServerHealth:
    """Point-in-time liveness and fault-tolerance counters of a server.

    Safe to poll from monitoring code at any moment of the server lifecycle
    (including before :meth:`Server.start` and after :meth:`Server.close`).
    """

    started: bool
    closed: bool
    num_workers: int
    alive_workers: int
    queue_depth: int
    queue_capacity: int
    num_rejected: int
    num_expired: int
    num_cancelled: int
    num_retried: int
    num_degraded: int
    num_worker_restarts: int
    #: Requests shed post-admission (claim-time doomed + breaker-blocked).
    num_shed: int = 0
    #: Requests shed at admission time (brownout / doomed-at-submit).
    num_admission_shed: int = 0
    #: Degraded-path circuit-breaker state ("disabled" when not configured).
    breaker_state: str = "disabled"
    #: Zero-downtime plan swaps completed so far.
    num_plan_swaps: int = 0

    @property
    def healthy(self) -> bool:
        """Accepting work with at least one live worker."""
        return self.started and not self.closed and self.alive_workers > 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot for monitoring endpoints."""
        return {
            "healthy": self.healthy,
            "started": self.started,
            "closed": self.closed,
            "num_workers": self.num_workers,
            "alive_workers": self.alive_workers,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "num_rejected": self.num_rejected,
            "num_expired": self.num_expired,
            "num_cancelled": self.num_cancelled,
            "num_retried": self.num_retried,
            "num_degraded": self.num_degraded,
            "num_worker_restarts": self.num_worker_restarts,
            "num_shed": self.num_shed,
            "num_admission_shed": self.num_admission_shed,
            "breaker_state": self.breaker_state,
            "num_plan_swaps": self.num_plan_swaps,
        }


class Server:
    """Request-batching, pipeline-capable inference server over one plan.

    Parameters (all keyword-only past ``plan``)
    ----------
    plan:
        The :class:`~repro.serving.plan.ModelPlan` to serve.  With a
        :class:`~repro.serving.graph.ModelGraph` attached (compiled via
        ``graph=...``), :meth:`submit` pipelines requests through every
        stage; without one, only a one-layer plan is servable.
    num_workers:
        Worker threads draining the queue (each executes whole micro-batches).
    max_batch:
        Maximum same-layer activations coalesced into one engine pass.
    max_pending:
        Admission-control bound on queued requests; submissions beyond it
        raise :class:`~repro.errors.BackpressureError`.
    retry_policy:
        Backoff policy for transient batch failures; ``None`` disables
        retries entirely (failures go straight to the degraded fallback).
    degraded_fallback:
        Re-run each member of a failed batch alone through the exact scalar
        oracle before giving up (default on).
    admission_control:
        Adaptive load shedding: ``True`` (default) installs a default
        :class:`~repro.serving.policy.AdmissionController`, ``False`` turns
        shedding off, or pass a configured controller instance.
    degraded_breaker:
        Circuit breaker guarding the degraded-oracle fallback: ``True``
        (default) installs a default
        :class:`~repro.serving.policy.CircuitBreaker`, ``False`` disables
        it, or pass a configured breaker instance.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector` for chaos
        testing; the default injects nothing.
    max_worker_restarts:
        Supervisor budget of worker restarts over the server's lifetime;
        defaults to ``2 * num_workers``.
    """

    def __init__(
        self,
        plan: ModelPlan,
        *,
        num_workers: int = 2,
        max_batch: int = 8,
        max_pending: int = 128,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
        degraded_fallback: bool = True,
        admission_control: Union[AdmissionController, bool, None] = True,
        degraded_breaker: Union[CircuitBreaker, bool, None] = True,
        faults: Optional[FaultInjector] = None,
        max_worker_restarts: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise ServingError(f"num_workers must be positive, got {num_workers}")
        if max_batch < 1:
            raise ServingError(f"max_batch must be positive, got {max_batch}")
        if max_worker_restarts is not None and max_worker_restarts < 0:
            raise ServingError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        self.plan = plan
        self.num_workers = num_workers
        self.max_batch = max_batch
        self.retry_policy = retry_policy
        self.degraded_fallback = degraded_fallback
        self.faults = faults
        self.max_worker_restarts = (
            max_worker_restarts if max_worker_restarts is not None else 2 * num_workers
        )
        if admission_control is True:
            self.admission: Optional[AdmissionController] = AdmissionController()
        elif admission_control is False or admission_control is None:
            self.admission = None
        else:
            self.admission = admission_control
        if degraded_breaker is True:
            self.breaker: Optional[CircuitBreaker] = CircuitBreaker()
        elif degraded_breaker is False or degraded_breaker is None:
            self.breaker = None
        else:
            self.breaker = degraded_breaker
        self.queue = RequestQueue(max_pending)
        self.queue.controller = self.admission
        self.batcher = MicroBatcher(plan, faults=faults)
        self._slots: List[_WorkerSlot] = []
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_cv = threading.Condition()
        self._supervisor_stop = False
        self._restarts_used = 0
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._next_id = 0
        self._records: List[_RequestRecord] = []
        # Running cycle/energy totals of completed requests' attributions.
        self._attributed_cycles: Optional[int] = None
        self._attributed_energy: Optional[EnergyBreakdown] = None
        self._batches: List[BatchExecution] = []
        self._model_records: List[_ModelRecord] = []
        self._implicit_graph: Optional[ModelGraph] = None
        self._served_model_requests = False
        self._expired = 0
        self._cancelled = 0
        self._degraded = 0
        self._retry_events = 0
        self._shed = 0
        self._admission_sheds = 0
        self._force_aborted = 0
        self._plan_swaps = 0
        # Plan-swap barrier: workers register popped batches as in-flight; a
        # swap drains to inflight == 0 while holding new dispatches out.
        self._swap_cv = threading.Condition()
        self._swap_active = False
        self._inflight_batches = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "Server":
        """Spin up the worker pool and supervisor (idempotent until close)."""
        with self._lock:
            if self._closed:
                raise ServingError("server has been closed")
            if self._started:
                return self
            self._started = True
            # The workers supply the parallelism; a multi-threaded BLAS under
            # each of them would oversubscribe the cores.
            pin_blas_threads()
            # Spawn under the lock so a concurrent close() always sees the
            # full worker list when it snapshots for joining.
            for index in range(self.num_workers):
                slot = _WorkerSlot(index=index)
                self._spawn_worker(slot)
                self._slots.append(slot)
            self._supervisor = threading.Thread(
                target=self._supervise, name="serving-supervisor", daemon=True
            )
            self._supervisor.start()
        return self

    def _spawn_worker(self, slot: _WorkerSlot) -> None:
        slot.thread = threading.Thread(
            target=self._worker_entry,
            args=(slot,),
            name=slot.name,
            daemon=True,
        )
        slot.thread.start()

    def close(self, drain: bool = True, timeout_s: Optional[float] = None) -> None:
        """Stop admitting requests and shut the pool down.

        With ``drain=True`` (default) queued requests are still executed
        before the workers exit.  With ``drain=False`` the server aborts:
        still-queued requests are failed promptly with
        :class:`~repro.errors.ServingError` and only the batches already in
        flight finish.  ``timeout_s`` bounds the shutdown either way: if
        workers are still running when it elapses, the server force-aborts —
        still-queued *and* still-in-flight requests are failed (never
        requeued) and counted as ``num_force_aborted`` in the report.
        """
        if timeout_s is not None and timeout_s < 0.0:
            raise ServingError(f"timeout_s must be >= 0, got {timeout_s}")
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        aborted: List[Request] = []
        if not drain:
            now = time.perf_counter()
            aborted = self.queue.drain_pending()
            for request in aborted:
                request.fail(
                    ServingError(
                        f"server closed (drain=False) before request "
                        f"{request.request_id} ('{request.layer}') was executed"
                    ),
                    now,
                )
        # Join workers, re-snapshotting: the supervisor may still replace a
        # worker that crashes while draining, so loop until no thread in any
        # slot is alive (or the shutdown deadline fires).
        deadline = time.perf_counter() + timeout_s if timeout_s is not None else None
        timed_out = False
        while True:
            threads = [slot.thread for slot in self._slots if slot.alive]
            if not threads:
                break
            if deadline is None:
                for thread in threads:
                    thread.join()
            else:
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    timed_out = True
                    break
                threads[0].join(min(remaining, 0.05))
        if self._supervisor is not None:
            with self._supervisor_cv:
                self._supervisor_stop = True
                self._supervisor_cv.notify_all()
            self._supervisor.join()
        forced: List[Request] = []
        if timed_out:
            # Give workers a moment to unwind, then kill whatever is still
            # held in flight.  Force-abort never requeues: the requests fail
            # with ServingError and are counted.
            grace_until = time.perf_counter() + 0.5
            while any(slot.alive for slot in self._slots):
                if time.perf_counter() >= grace_until:
                    break
                time.sleep(0.005)
            now = time.perf_counter()
            for slot in self._slots:
                inflight, slot.inflight = slot.inflight, None
                for request in inflight or []:
                    if request.fail(
                        ServingError(
                            f"server close(timeout_s={timeout_s}) force-"
                            f"aborted in-flight request {request.request_id} "
                            f"('{request.layer}')"
                        ),
                        now,
                    ):
                        forced.append(request)
        # Account for everything that never reached a worker: requests shed
        # by the queue plus any leftovers a crashed worker requeued after the
        # restart budget ran out.
        leftovers = self.queue.drain_pending()
        now = time.perf_counter()
        for request in leftovers:
            request.fail(
                ServingError(
                    f"server closed before request {request.request_id} "
                    f"('{request.layer}') was executed"
                ),
                now,
            )
        if timed_out:
            with self._lock:
                self._force_aborted += len(forced) + len(leftovers)
        stragglers = aborted + forced + leftovers + self.queue.take_shed()
        if stragglers:
            self._finish([], stragglers)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------- plan swap
    def swap_plan(self, new_plan: ModelPlan) -> None:
        """Hot-swap the served plan with zero downtime (weight update).

        The server keeps admitting and queueing requests throughout; only
        batch *dispatch* pauses while in-flight batches drain to a
        plan-quiescent point, then ``new_plan`` is prewarmed and installed in
        the batcher, and dispatch resumes.  No admitted request is dropped or
        reordered; work claimed before the swap completes against the old
        plan, everything after runs on the new one.

        ``new_plan`` must be shape-compatible with the served plan (same
        layer names, per-layer dimensions and model graph) so queued
        activations stay valid; anything else raises
        :class:`~repro.errors.ServingError` without disturbing serving.
        Call it from a control thread — never from a request callback (a
        worker cannot drain the batch it is executing).
        """
        with self._lock:
            if not self._started:
                raise ServingError("server is not started; call start() first")
            if self._closed:
                raise ServingError("server has been closed")
        self._validate_swap(new_plan)
        with self._swap_cv:
            while self._swap_active:  # serialise concurrent swaps
                self._swap_cv.wait()
            self._swap_active = True
            while self._inflight_batches:
                self._swap_cv.wait()
        try:
            # Prewarm every layer's scoreboard now, outside the hot path, so
            # the first post-swap batch pays no compile latency.
            for name in new_plan.layer_names():
                shape = new_plan.layer(name).shape
                new_plan.run(name, np.zeros((shape.k, 1), dtype=np.int64))
            self.plan = new_plan
            self.batcher.plan = new_plan
            with self._lock:
                self._plan_swaps += 1
        finally:
            with self._swap_cv:
                self._swap_active = False
                self._swap_cv.notify_all()

    def _validate_swap(self, new_plan: ModelPlan) -> None:
        """Reject a swap that would invalidate queued work (shape drift)."""
        old_names = list(self.plan.layer_names())
        new_names = list(new_plan.layer_names())
        if old_names != new_names:
            raise ServingError(
                f"swap_plan needs the same layer set: serving {old_names}, "
                f"got {new_names}"
            )
        for name in old_names:
            old_shape = self.plan.layer(name).shape
            new_shape = new_plan.layer(name).shape
            if (old_shape.k, old_shape.n) != (new_shape.k, new_shape.n):
                raise ServingError(
                    f"swap_plan changes layer '{name}' from "
                    f"k={old_shape.k}, n={old_shape.n} to "
                    f"k={new_shape.k}, n={new_shape.n}; queued activations "
                    f"would no longer be servable"
                )
        if self.plan.graph != new_plan.graph:
            raise ServingError(
                "swap_plan needs an identical model graph; recompile the new "
                "plan with the same graph= as the served plan"
            )

    # -------------------------------------------------------------- clients
    def submit(
        self,
        activation: np.ndarray,
        deadline_s: Optional[float] = None,
        *,
        model: Optional[str] = None,
        stream: Optional[int] = None,
        priority: Optional[int] = None,
        options: Optional[SubmitOptions] = None,
    ) -> ModelRequest:
        """Admit one whole-model request against the compiled plan.

        The activation is routed through every stage of the plan's
        :class:`~repro.serving.graph.ModelGraph` and a
        :class:`~repro.serving.model_request.ModelRequest` handle is
        returned.  ``deadline_s`` bounds the whole pipeline, ``model=``
        optionally names the plan being targeted (validated), ``stream=N``
        runs ``N`` autoregressive decode steps (step ``t``'s output feeds
        step ``t + 1``), ``priority=`` picks the QoS class (0 = interactive,
        the default; larger = bulk traffic that interactive work overtakes
        and the admission controller browns out first), and ``options=``
        bundles all of them as a
        :class:`~repro.serving.model_request.SubmitOptions` (explicit
        keywords win).  Shape and dtype are validated up front.  Admission
        control applies at stage 0 only — a model request occupies one
        pipeline stage at a time, so continuations never bounce off the
        queue bound.  Submission may raise
        :class:`~repro.errors.BackpressureError` when the queue is full and
        :class:`~repro.errors.ShedError` when the admission controller
        judges the request doomed or browns out its priority class.
        """
        _reject_layer_name(activation)
        graph, deadline_s, steps, qos = self._resolve_submit(
            deadline_s, model, stream, priority, options
        )
        with self._lock:
            self._check_accepting()
            request_id = self._next_id
            self._next_id += 1
            self._served_model_requests = True
        now = time.perf_counter()
        # Shed before building: a shed submit never materialises its requests.
        self._admission_shed_check(
            graph.stages[0].layer, deadline_at(now, deadline_s), qos
        )
        model_request, stage0 = self._build_model_request(
            request_id, graph, activation, now, deadline_s, steps, qos,
        )
        self.queue.put(stage0)  # may raise BackpressureError
        return model_request

    def submit_many(
        self,
        activations: Sequence[np.ndarray],
        deadline_s: Optional[float] = None,
        *,
        model: Optional[str] = None,
        stream: Optional[int] = None,
        priority: Optional[int] = None,
        options: Optional[SubmitOptions] = None,
    ) -> List[ModelRequest]:
        """Admit a batch of whole-model requests atomically (all-or-nothing).

        One model request per activation, with every stage-0 request
        enqueued through a single
        :meth:`~repro.serving.queue.RequestQueue.put_many` call — if the
        batch does not fit under ``max_pending``, nothing is admitted and
        :class:`~repro.errors.BackpressureError` is raised with every member
        counted as rejected.  A validation failure on any member admits
        nothing either.  Returns the handles in submission order.
        """
        _reject_layer_name(activations)
        activations = list(activations)
        if not activations:
            raise ServingError("submit_many needs at least one activation")
        graph, deadline_s, steps, qos = self._resolve_submit(
            deadline_s, model, stream, priority, options
        )
        with self._lock:
            self._check_accepting()
            first_id = self._next_id
            self._next_id += len(activations)
            self._served_model_requests = True
        submitted_at = time.perf_counter()
        self._admission_shed_check(
            graph.stages[0].layer, deadline_at(submitted_at, deadline_s), qos,
            count=len(activations),
        )
        pairs = [
            self._build_model_request(
                first_id + offset, graph, activation, submitted_at,
                deadline_s, steps, qos,
            )
            for offset, activation in enumerate(activations)
        ]
        self.queue.put_many([stage0 for _, stage0 in pairs])
        return [model_request for model_request, _ in pairs]

    def _admission_shed_check(
        self,
        layer: str,
        deadline_at_: Optional[float],
        priority: int,
        count: int = 1,
    ) -> None:
        """Consult the admission controller before enqueueing new work.

        Raises the controller's :class:`~repro.errors.ShedError` (counted as
        ``count`` admission sheds — a ``submit_many`` batch sheds as a unit).
        """
        if self.admission is None:
            return
        error = self.admission.admission_check(
            layer, deadline_at_, priority, time.perf_counter(),
            len(self.queue), self.queue.max_pending,
        )
        if error is not None:
            with self._lock:
                self._admission_sheds += count
            raise error

    # ------------------------------------------------- model-level pipeline
    def _pipeline_graph(self) -> ModelGraph:
        """The graph model requests flow through, building the implicit
        single-layer chain when the plan has exactly one layer and no graph."""
        if self.plan.graph is not None:
            return self.plan.graph
        if self._implicit_graph is None:
            names = self.plan.layer_names()
            if len(names) != 1:
                raise ServingError(
                    f"model plan '{self.plan.name}' has {len(names)} layers "
                    f"but no model graph; recompile with graph='chain' (or "
                    f"an explicit ModelGraph) to serve whole-model requests"
                )
            self._implicit_graph = ModelGraph.chain(names)
        return self._implicit_graph

    def _resolve_submit(
        self,
        deadline_s: Optional[float],
        model: Optional[str],
        stream: Optional[int],
        priority: Optional[int],
        options: Optional[SubmitOptions],
    ) -> Tuple[ModelGraph, Optional[float], int, int]:
        """Validate model-level submit parameters against the plan."""
        opts = options if options is not None else SubmitOptions()
        if deadline_s is None:
            deadline_s = opts.deadline_s
        steps = stream if stream is not None else opts.stream
        qos = priority if priority is not None else opts.priority
        if steps < 1:
            raise ServingError(f"stream must be >= 1 decode steps, got {steps}")
        if qos < 0:
            raise ServingError(f"priority must be >= 0, got {qos}")
        if model is not None and model != self.plan.name:
            raise ServingError(
                f"this server serves model '{self.plan.name}', not '{model}'"
            )
        graph = self._pipeline_graph()
        if steps > 1:
            first = self.plan.layer(graph.stages[0].layer).shape
            last = self.plan.layer(graph.stages[-1].layer).shape
            if last.n != first.k:
                raise ServingError(
                    f"model '{self.plan.name}' is not streamable: the final "
                    f"stage ('{last.name}') produces {last.n}-row outputs but "
                    f"the first stage ('{first.name}') consumes {first.k}-row "
                    f"inputs, so step outputs cannot feed the next step"
                )
        return graph, deadline_s, steps, qos

    def _build_model_request(
        self,
        request_id: int,
        graph: ModelGraph,
        activation: np.ndarray,
        submitted_at: float,
        deadline_s: Optional[float],
        steps: int,
        priority: int,
    ) -> Tuple[ModelRequest, Request]:
        """Wrap one validated activation into a model request + its stage-0
        request (not yet enqueued)."""
        first_layer = graph.stages[0].layer
        stage0 = self._make_request(
            request_id, first_layer, self.plan.layer(first_layer), activation,
            submitted_at, deadline_s, priority,
        )
        model_request = ModelRequest(
            request_id=request_id,
            model=self.plan.name,
            stages=graph.layers,
            num_steps=steps,
            submitted_at=submitted_at,
            deadline_at=stage0.deadline_at,
            priority=priority,
        )
        model_request._graph = graph
        model_request._begin_step(stage0.activation)
        stage0.pipeline = (model_request, 0, 0)
        stage0.on_done = self._on_stage_done
        model_request._set_current(stage0)
        return model_request, stage0

    def _on_stage_done(self, request: Request) -> None:
        """Advance a pipelined model request when one of its stages settles.

        Fired by the stage request's terminal transition (outside its state
        lock), on whichever thread completed it — a worker fulfilling a
        batch, the queue shedding an expired request, or a client cancelling.
        Any error advancing the pipeline fails the model request rather than
        the advancing thread.
        """
        model_request, step, stage_index = request.pipeline
        try:
            self._advance_model(model_request, request, step, stage_index)
        except Exception as error:  # noqa: BLE001 - must not kill the caller
            self._finish_model(model_request, error=error)

    def _advance_model(
        self,
        model_request: ModelRequest,
        request: Request,
        step: int,
        stage_index: int,
    ) -> None:
        graph: ModelGraph = model_request._graph
        if request.state != DONE:
            # The stage failed / expired / was cancelled / was shed: its error
            # and terminal state are the model request's (deadlines and
            # retries were already enforced at stage level).
            try:
                request.result(timeout=0)
            except BaseException as error:  # noqa: BLE001 - forwarded
                self._finish_model(model_request, error=error, state=request.state)
                return
            raise ServingError(
                f"stage request {request.request_id} in state "
                f"'{request.state}' reported no result and no error"
            )  # pragma: no cover - state machine guarantees one of the two
        output = request.result(timeout=0)
        model_request._record_stage(request, request.layer, output)
        if model_request._cancel_pending():
            self._finish_model(model_request, cancelled=True)
            return
        next_stage = stage_index + 1
        now = time.perf_counter()
        if next_stage < len(graph.stages):
            spec = graph.stages[next_stage]
            activation = model_request._stage_activation(
                spec.source, spec.reads_input
            )
            self._enqueue_stage(
                model_request, spec.layer, activation, step, next_stage, now
            )
            return
        # Last stage of this decode step.
        model_request._finish_step(output)
        next_step = step + 1
        if next_step < model_request.num_steps:
            model_request._begin_step(output)
            first = graph.stages[0]
            self._enqueue_stage(
                model_request, first.layer, output, next_step, 0, now
            )
            return
        self._finish_model(model_request)

    def _enqueue_stage(
        self,
        model_request: ModelRequest,
        layer: str,
        activation: np.ndarray,
        step: int,
        stage_index: int,
        now: float,
    ) -> None:
        """Build and enqueue one continuation stage request.

        Continuations bypass admission control (the model request was
        admitted at stage 0 and occupies one stage at a time) and carry the
        model's *absolute* deadline, so a whole-pipeline deadline sheds
        later stages exactly like queued single-layer requests.
        """
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        stage_request = Request(
            request_id=request_id,
            layer=layer,
            activation=activation,
            submitted_at=now,
            deadline_at=model_request.deadline_at,
            priority=model_request.priority,
        )
        stage_request.pipeline = (model_request, step, stage_index)
        stage_request.on_done = self._on_stage_done
        model_request._set_current(stage_request)
        self.queue.put_continuation(stage_request)

    def _finish_model(
        self,
        model_request: ModelRequest,
        error: Optional[BaseException] = None,
        cancelled: bool = False,
        state: str = FAILED,
    ) -> None:
        now = time.perf_counter()
        if cancelled:
            won = model_request._cancelled(now)
        elif error is not None:
            won = model_request._fail(error, now, state)
        else:
            won = model_request._complete(now)
        if not won:
            return
        record = _ModelRecord(
            state=model_request.state,
            latency_s=model_request.latency_s,
            steps=model_request.steps_completed,
            priority=model_request.priority,
            deadline_met=(
                model_request.state == DONE
                and (
                    model_request.deadline_at is None
                    or model_request.finished_at <= model_request.deadline_at
                )
            ),
        )
        with self._lock:
            self._model_records.append(record)

    def _check_accepting(self) -> None:
        """Reject submissions outside the started-and-open window (locked)."""
        if not self._started:
            raise ServingError("server is not started; call start() first")
        if self._closed:
            raise ServingError("server has been closed")

    def _make_request(
        self,
        request_id: int,
        layer: str,
        layer_plan,
        activation: np.ndarray,
        submitted_at: float,
        deadline_s: Optional[float],
        priority: int = 0,
    ) -> Request:
        """Validate one activation and wrap it into a queued-ready request."""
        activation = np.asarray(activation)
        if activation.ndim != 2:
            raise ServingError(
                f"activation for layer '{layer}' must be 2-D, got {activation.ndim}-D"
            )
        if activation.shape[0] != layer_plan.shape.k or activation.shape[1] < 1:
            raise ServingError(
                f"activation for layer '{layer}' must be ({layer_plan.shape.k}, m>=1), "
                f"got {activation.shape}"
            )
        return Request(
            request_id=request_id,
            layer=layer,
            activation=self._validate_activation_values(layer, activation),
            submitted_at=submitted_at,
            deadline_at=deadline_at(submitted_at, deadline_s),
            priority=priority,
        )

    @staticmethod
    def _validate_activation_values(layer: str, activation: np.ndarray) -> np.ndarray:
        """Convert an activation to ``int64`` only when that is value-exact.

        ``np.asarray(x, dtype=np.int64)`` silently floors non-integral floats
        (and wraps NaN/inf), which would serve a wrong-but-plausible output;
        reject anything that is not an exact integer matrix instead.
        """
        if activation.dtype == np.int64:
            return activation
        if activation.dtype == bool or np.issubdtype(activation.dtype, np.integer):
            return activation.astype(np.int64)
        if np.issubdtype(activation.dtype, np.floating):
            if not np.all(np.isfinite(activation)):
                raise ServingError(
                    f"activation for layer '{layer}' contains non-finite values"
                )
            if np.any(activation != np.trunc(activation)) or np.any(
                np.abs(activation) > _FLOAT_EXACT_INT_BOUND
            ):
                raise ServingError(
                    f"activation for layer '{layer}' has dtype "
                    f"{activation.dtype} with values that are not exactly "
                    f"representable as int64; quantize it explicitly instead "
                    f"of relying on silent truncation"
                )
            return activation.astype(np.int64)
        raise ServingError(
            f"activation for layer '{layer}' has unsupported dtype "
            f"{activation.dtype}; expected an integer (or exactly integral "
            f"float) matrix"
        )

    # -------------------------------------------------------------- workers
    def _worker_entry(self, slot: _WorkerSlot) -> None:
        try:
            self._worker_loop(slot)
        except BaseException as error:  # noqa: BLE001 - supervised crash path
            self._report_crash(slot, error)
        else:
            slot.finished = True

    def _worker_loop(self, slot: _WorkerSlot) -> None:
        while True:
            # Block on the queue's condition variable: close() notifies, so
            # shutdown latency is notification-bound, not poll-bound.
            batch = self.queue.next_batch(self.max_batch, timeout=None)
            self._collect_shed()
            if batch is None:
                return
            slot.inflight = batch
            # Plan-swap barrier: register the batch as in-flight so
            # swap_plan() can drain to a plan-quiescent point; a draining
            # swap holds new dispatches here.  The popped batch stays in
            # ``slot.inflight`` meanwhile, so a crash still requeues it,
            # and the finally-decrement keeps the barrier crash-safe.
            with self._swap_cv:
                while self._swap_active:
                    self._swap_cv.wait()
                self._inflight_batches += 1
            try:
                if self.faults is not None:
                    self.faults.on_dispatch(slot.name)  # may raise: worker death
                self._process_batch(slot, batch)
            finally:
                with self._swap_cv:
                    self._inflight_batches -= 1
                    self._swap_cv.notify_all()
            slot.inflight = None

    def _process_batch(self, slot: _WorkerSlot, batch: List[Request]) -> None:
        claim_time = time.perf_counter()
        claimed = [
            request for request in batch if request.try_claim(claim_time, len(batch))
        ]
        if claimed and self.admission is not None:
            for request in claimed:
                self.admission.observe_wait(claim_time - request.submitted_at)
        execution = self._execute_resilient(claimed) if claimed else None
        if execution is not None and self.admission is not None:
            self.admission.observe_batch(
                execution.layer,
                execution.batch_size,
                execution.compute_s
                if execution.compute_s is not None
                else execution.duration_s,
            )
        if claimed:
            busy_s = time.perf_counter() - claim_time
            compute_s = execution.duration_s if execution is not None else 0.0
            slot.batches += 1
            slot.requests += len(claimed)
            slot.compute_s += compute_s
            slot.dispatch_s += max(busy_s - compute_s, 0.0)
        self._finish([execution] if execution is not None else [], batch)

    def _execute_resilient(
        self, claimed: List[Request]
    ) -> Optional[BatchExecution]:
        """Run one claimed batch under the retry policy + degraded fallback.

        The circuit breaker watches the outcomes: a fast-path success records
        success, exhausted retries (or a non-transient failure) record
        failure — and when the accumulated failures tripped it open, the
        batch is shed instead of taking the slow degraded oracle.
        """
        attempt = 1
        while True:
            try:
                execution = self.batcher.execute_once(claimed)
            except WorkerCrashError:
                # Worker death is not a batch failure: let it escape to the
                # worker crash path (requeue + supervised restart) instead of
                # burning retries or degrading a batch that never ran.
                raise
            except Exception as error:  # noqa: BLE001 - resilience boundary
                if self.retry_policy is not None and self.retry_policy.should_retry(
                    error, attempt
                ):
                    for request in claimed:
                        request.retries += 1
                    with self._lock:
                        self._retry_events += len(claimed)
                    delay = self.retry_policy.backoff_s(attempt)
                    attempt += 1
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                if self.breaker is not None:
                    self.breaker.record_failure()
                if not self.degraded_fallback:
                    finished_at = time.perf_counter()
                    for request in claimed:
                        request.fail(error, finished_at)
                elif self.breaker is not None and not self.breaker.allow():
                    self._shed_breaker_blocked(claimed, error)
                else:
                    self._execute_degraded(claimed)
                return None
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return execution

    def _shed_breaker_blocked(
        self, claimed: List[Request], cause: BaseException
    ) -> None:
        """Shed a failed batch the open breaker keeps away from the oracle."""
        retry_after = self.breaker.retry_after_s() if self.breaker else 0.0
        now = time.perf_counter()
        for request in claimed:
            request.shed(
                ShedError(
                    f"request {request.request_id} ('{request.layer}') shed: "
                    f"the degraded-fallback circuit breaker is open after "
                    f"sustained fast-path failures ({cause}); retry in "
                    f"~{max(retry_after, 1e-3) * 1e3:.0f} ms",
                    retry_after_s=retry_after,
                ),
                now,
            )

    def _execute_degraded(self, claimed: List[Request]) -> None:
        """Per-request scalar-oracle fallback for a batch that kept failing.

        Serving each request alone through the exact oracle isolates a
        batch-poisoning request: its neighbours still complete bit-exactly,
        and only the poisoned request fails with its own error.
        """
        for request in claimed:
            try:
                output = self.plan.run_degraded(request.layer, request.activation)
            except Exception as error:  # noqa: BLE001 - per-request failure
                request.fail(error, time.perf_counter())
                continue
            request.degraded = True
            request.attribution = self.plan.attribute(request.layer, request.columns)
            request.fulfil(output, time.perf_counter())

    def _collect_shed(self) -> None:
        shed = self.queue.take_shed()
        if shed:
            self._finish([], shed)

    def _report_crash(self, slot: _WorkerSlot, error: BaseException) -> None:
        """Worker-death path: salvage in-flight work, then wake the supervisor."""
        inflight, slot.inflight = slot.inflight, None
        if inflight:
            revived = [
                request
                for request in inflight
                if not request.done() and request.reset_for_retry()
            ]
            if revived:
                self.queue.requeue(revived)
        with self._supervisor_cv:
            slot.crash_errors.append(error)
            self._supervisor_cv.notify_all()

    # ----------------------------------------------------------- supervisor
    def _supervise(self) -> None:
        """Restart crashed workers until the budget or the server runs out."""
        while True:
            with self._supervisor_cv:
                crashed = [
                    slot
                    for slot in self._slots
                    if slot.crash_errors and not slot.dead
                ]
                if not crashed:
                    if self._supervisor_stop:
                        return
                    self._supervisor_cv.wait()
                    continue
                restartable: List[_WorkerSlot] = []
                for slot in crashed:
                    slot.crash_errors.clear()
                    with self._lock:
                        closed = self._closed
                    if closed or self._restarts_used >= self.max_worker_restarts:
                        slot.dead = True
                        continue
                    self._restarts_used += 1
                    restartable.append(slot)
            for slot in restartable:
                # The crash was reported from the dying thread itself; let it
                # finish unwinding before its slot gets a replacement.
                if slot.thread is not None:
                    slot.thread.join()
                self._spawn_worker(slot)

    # ------------------------------------------------------------ accounting
    def _finish(
        self, executions: List[BatchExecution], requests: List[Request]
    ) -> None:
        """Account finished requests: keep scalar records, and add completed
        requests' attributions to running totals instead of keeping them."""
        records = [self._record(request) for request in requests]
        attributions = [
            request.attribution
            for request, record in zip(requests, records)
            if record.state == DONE and request.attribution is not None
        ]
        with self._lock:
            self._batches.extend(executions)
            self._records.extend(records)
            for attribution in attributions:
                if self._attributed_cycles is None:
                    self._attributed_cycles = 0
                    self._attributed_energy = EnergyBreakdown()
                self._attributed_cycles += attribution.cycles
                self._attributed_energy = self._attributed_energy.merge(
                    attribution.energy
                )
            for record in records:
                if record.state == EXPIRED:
                    self._expired += 1
                elif record.state == CANCELLED:
                    self._cancelled += 1
                elif record.state == SHED:
                    self._shed += 1
                if record.degraded:
                    self._degraded += 1

    @staticmethod
    def _record(request: Request) -> _RequestRecord:
        finished_at = (
            request.finished_at
            if request.finished_at is not None
            else time.perf_counter()
        )
        return _RequestRecord(
            layer=request.layer,
            columns=request.columns,
            state=request.state,
            submitted_at=request.submitted_at,
            finished_at=finished_at,
            latency_s=finished_at - request.submitted_at,
            queue_delay_s=(
                request.started_at - request.submitted_at
                if request.started_at is not None
                else 0.0
            ),
            retries=request.retries,
            degraded=request.degraded,
            priority=request.priority,
            deadline_met=(
                request.state == DONE
                and (
                    request.deadline_at is None
                    or finished_at <= request.deadline_at
                )
            ),
        )

    # ------------------------------------------------------------ monitoring
    def health(self) -> ServerHealth:
        """Live liveness and fault-tolerance counters (safe to poll anytime)."""
        with self._supervisor_cv:
            alive_workers = sum(1 for slot in self._slots if slot.alive)
            restarts = self._restarts_used
        with self._lock:
            started = self._started
            closed = self._closed
            expired = self._expired
            cancelled = self._cancelled
            degraded = self._degraded
            retried = self._retry_events
            shed = self._shed
            admission_shed = self._admission_sheds
            plan_swaps = self._plan_swaps
        return ServerHealth(
            started=started,
            closed=closed,
            num_workers=self.num_workers,
            alive_workers=alive_workers,
            queue_depth=len(self.queue),
            queue_capacity=self.queue.max_pending,
            num_rejected=self.queue.rejected,
            num_expired=expired,
            num_cancelled=cancelled,
            num_retried=retried,
            num_degraded=degraded,
            num_worker_restarts=restarts,
            num_shed=shed,
            num_admission_shed=admission_shed,
            breaker_state=(
                self.breaker.state if self.breaker is not None else "disabled"
            ),
            num_plan_swaps=plan_swaps,
        )

    def _shard_stats(self) -> List[ShardStats]:
        """Per-worker utilization from the worker slots' counters."""
        with self._lock:
            return [
                ShardStats(
                    shard=slot.index,
                    batches=slot.batches,
                    requests=slot.requests,
                    compute_s=slot.compute_s,
                    dispatch_s=slot.dispatch_s,
                )
                for slot in self._slots
            ]

    # ------------------------------------------------------------ reporting
    def report(self) -> ServingReport:
        """Build the serving report from every request completed so far.

        Well-formed even before any request finishes (all-zero throughput and
        percentiles), so health/monitoring code can poll it safely.
        """
        with self._supervisor_cv:
            restarts = self._restarts_used
        with self._lock:
            records = list(self._records)
            batches = list(self._batches)
            model_records = list(self._model_records)
            served_models = self._served_model_requests
            admission_sheds = self._admission_sheds
            plan_swaps = self._plan_swaps
            force_aborted = self._force_aborted
            attributed_cycles = self._attributed_cycles
            attributed_energy = self._attributed_energy
        done = [record for record in records if record.state == DONE]
        failed = sum(1 for record in records if record.state == FAILED)
        expired = sum(1 for record in records if record.state == EXPIRED)
        cancelled = sum(1 for record in records if record.state == CANCELLED)
        shed = sum(1 for record in records if record.state == SHED)
        retried = sum(record.retries for record in records)
        degraded = sum(1 for record in done if record.degraded)
        met = [record for record in done if record.deadline_met]
        met_by_priority: Dict[int, int] = {}
        for record in met:
            met_by_priority[record.priority] = (
                met_by_priority.get(record.priority, 0) + 1
            )

        requests_per_layer: Dict[str, int] = {}
        for record in done:
            requests_per_layer[record.layer] = (
                requests_per_layer.get(record.layer, 0) + 1
            )

        op_counts = None
        for execution in batches:
            if execution.op_counts is None:
                continue
            op_counts = (
                execution.op_counts
                if op_counts is None
                else op_counts.merge(execution.op_counts)
            )

        # Per-run plan-cache accounting: every successful batch reused a
        # precompiled scoreboard (hit); the misses are the offline scoreboard
        # compilations of the layers this run actually served.
        successful_batches = [b for b in batches if b.op_counts is not None]

        wall_s = (
            max(record.finished_at for record in records)
            - min(record.submitted_at for record in records)
            if records
            else 0.0
        )
        stages: List[StageStats] = []
        pipeline_depth = 0
        graph = self.plan.graph
        if graph is None and served_models:
            graph = self._implicit_graph
        if graph is not None:
            pipeline_depth = len(graph)
            stages = self._stage_stats(graph, records, batches, wall_s)
        model_done = [r for r in model_records if r.state == DONE]
        return build_report(
            workload=self.plan.name,
            latencies_s=[record.latency_s for record in done],
            queue_delays_s=[record.queue_delay_s for record in done],
            wall_s=wall_s,
            total_columns=sum(record.columns for record in done),
            num_failed=failed,
            num_rejected=self.queue.rejected,
            batch_sizes=[execution.batch_size for execution in batches],
            requests_per_layer=requests_per_layer,
            plan_hits=len(successful_batches),
            plan_misses=len({b.layer for b in successful_batches}),
            op_counts=op_counts,
            scoreboard_cache=self.plan.engine.scoreboard_cache_info(),
            attributed_cycles=attributed_cycles,
            attributed_energy=attributed_energy,
            num_expired=expired,
            num_cancelled=cancelled,
            num_retried=retried,
            num_degraded=degraded,
            num_worker_restarts=restarts,
            compile_stats=getattr(self.plan, "compile_stats", None),
            shards=self._shard_stats(),
            stages=stages,
            model_latencies_s=[record.latency_s for record in model_done],
            num_model_failed=len(model_records) - len(model_done),
            pipeline_depth=pipeline_depth,
            num_shed=shed,
            num_admission_shed=admission_sheds,
            breaker_trips=self.breaker.trips if self.breaker is not None else 0,
            breaker_state=(
                self.breaker.state if self.breaker is not None else "disabled"
            ),
            num_plan_swaps=plan_swaps,
            num_force_aborted=force_aborted,
            num_deadline_met=len(met),
            deadline_met_by_priority=met_by_priority,
        )

    @staticmethod
    def _stage_stats(
        graph: ModelGraph,
        records: List[_RequestRecord],
        batches: List[BatchExecution],
        wall_s: float,
    ) -> List[StageStats]:
        """Per-pipeline-stage breakdown from the per-layer accounting.

        Stages map 1:1 to layers in a model graph, so the stage's requests
        are the records against its layer and its compute time is the summed
        engine-pass time of that layer's batches.  ``occupancy`` divides by
        the run's wall-clock: overlapped pipelines push the stage occupancies
        toward the worker count, serial execution keeps their sum under 1.
        """
        wall = max(wall_s, 1e-12)
        stages: List[StageStats] = []
        for index, spec in enumerate(graph.stages):
            layer_records = [r for r in records if r.layer == spec.layer]
            layer_done = [r for r in layer_records if r.state == DONE]
            layer_batches = [b for b in batches if b.layer == spec.layer]
            compute_s = sum(
                b.compute_s if b.compute_s is not None else b.duration_s
                for b in layer_batches
            )
            latencies = [r.latency_s for r in layer_done]
            waits = [r.queue_delay_s for r in layer_done]
            stages.append(
                StageStats(
                    stage=index,
                    layer=spec.layer,
                    requests=len(layer_done),
                    batches=len(layer_batches),
                    compute_s=compute_s,
                    queue_wait_mean_s=sum(waits) / len(waits) if waits else 0.0,
                    latency_mean_s=(
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                    latency_p95_s=(
                        float(np.percentile(latencies, 95.0)) if latencies else 0.0
                    ),
                    occupancy=compute_s / wall,
                )
            )
        return stages
