"""Thread-pool serving runtime over a compiled :class:`ModelPlan`.

The server owns the bounded :class:`~repro.serving.queue.RequestQueue`, a pool
of supervised worker threads draining it through the
:class:`~repro.serving.batcher.MicroBatcher`, and the
:class:`~repro.serving.report.ServingLedger` that :meth:`Server.health` and
:meth:`Server.report` are derived from.  The flow is the classic
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
  through NumPy's int64 product (no BLAS, so independent of the kernel), so
  one poisoned request fails alone instead of failing its micro-batch;
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
  degraded fallback: sustained fast-path failure trips it open and failing
  batches are shed fast instead of compounding the overload through
  unbatched per-request products;
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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

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
from .report import ServerHealth, ServingLedger, ServingReport
from .request import DONE, FAILED, Request

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


@dataclass
class _WorkerSlot:
    """One supervised worker position in the pool (thread may be replaced)."""

    index: int
    thread: Optional[threading.Thread] = None
    inflight: Optional[List[Request]] = None
    crash_errors: List[BaseException] = field(default_factory=list)
    dead: bool = False
    finished: bool = False

    @property
    def name(self) -> str:
        return f"serving-worker-{self.index}"

    @property
    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


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
        Re-run each member of a failed batch alone through NumPy's int64
        product before giving up (default on).
    admission_control:
        Adaptive load shedding: ``True`` (default) installs a default
        :class:`~repro.serving.policy.AdmissionController`, ``False`` turns
        shedding off, or pass a configured controller instance.
    degraded_breaker:
        Circuit breaker guarding the degraded fallback: ``True``
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
        self._ledger = ServingLedger()
        self._implicit_graph: Optional[ModelGraph] = None
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
            self._ledger.count("force_aborted", len(forced) + len(leftovers))
        self._ledger.fold(aborted + forced + leftovers + self.queue.take_shed())

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
            self._ledger.count("plan_swaps")
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
            self._ledger.count("admission_shed", count)
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
        if won:
            self._ledger.fold_model(model_request)

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
            self._ledger.fold(self.queue.take_shed())
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
                execution.layer, execution.batch_size, execution.compute_s
            )
        if claimed:
            self._ledger.fold_worker(
                slot.index,
                len(claimed),
                execution.compute_s if execution is not None else 0.0,
                time.perf_counter() - claim_time,
            )
        self._ledger.fold(batch, execution)

    def _execute_resilient(
        self, claimed: List[Request]
    ) -> Optional[BatchExecution]:
        """Run one claimed batch under the retry policy + degraded fallback.

        The circuit breaker watches the outcomes: a fast-path success records
        success, exhausted retries (or a non-transient failure) record
        failure — and when the accumulated failures tripped it open, the
        batch is shed instead of taking the per-request degraded path.
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
        """Shed a failed batch the open breaker keeps off the degraded path."""
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
        """Per-request int64 fallback for a batch that kept failing.

        Serving each request alone through :meth:`ModelPlan.run_degraded`
        (NumPy's int64 product, which does not use BLAS) isolates a
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

    # ------------------------------------------------------------ monitoring
    def _breaker_state(self) -> str:
        return self.breaker.state if self.breaker is not None else "disabled"

    def health(self) -> ServerHealth:
        """Live liveness and fault-tolerance counters (safe to poll anytime)."""
        with self._supervisor_cv:
            alive_workers = sum(1 for slot in self._slots if slot.alive)
            restarts = self._restarts_used
        with self._lock:
            started = self._started
            closed = self._closed
        return ServerHealth(
            started=started,
            closed=closed,
            num_workers=self.num_workers,
            alive_workers=alive_workers,
            queue_depth=len(self.queue),
            queue_capacity=self.queue.max_pending,
            num_rejected=self.queue.rejected,
            num_worker_restarts=restarts,
            breaker_state=self._breaker_state(),
            **self._ledger.counters(),
        )

    # ------------------------------------------------------------ reporting
    def report(self) -> ServingReport:
        """Derive the serving report from the ledger of finished requests.

        Well-formed even before any request finishes (all-zero throughput and
        percentiles), so health/monitoring code can poll it safely.
        """
        with self._supervisor_cv:
            restarts = self._restarts_used
        with self._lock:
            # Any request id handed out means a model request got past the
            # open check, so the implicit one-layer chain is being served.
            admitted = self._next_id > 0
        graph = self.plan.graph
        if graph is None and admitted:
            graph = self._implicit_graph
        return self._ledger.report(
            workload=self.plan.name,
            stage_layers=graph.layers if graph is not None else (),
            num_workers=len(self._slots),
            num_rejected=self.queue.rejected,
            num_worker_restarts=restarts,
            compile_stats=getattr(self.plan, "compile_stats", None),
            breaker_trips=self.breaker.trips if self.breaker is not None else 0,
            breaker_state=self._breaker_state(),
        )
