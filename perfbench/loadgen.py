"""One-thread load generation against a running ``Server``, and its spans.

A closed loop keeps a fixed number of sessions in flight: each sends its next
request when the previous one returns.  An open loop sends on a schedule
whatever the server does.  Every request sent is kept as a :class:`Sent`
record; outputs are checked by the oracle after the timed region.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    ServingError,
    ShedError,
)

from .oracle import digest
from .workloads import Workload, request_input

#: Longest wait for one reply before the request counts as failed.
RESULT_TIMEOUT_S = 120.0
#: How long a closed loop blocks on its oldest request before it checks the
#: others: replies can return out of order, and the client API has no wait
#: for any of several requests.
POLL_S = 0.001


class Tracer:
    """Spans kept in memory: name, start, end, parent span and request id.

    Disabled tracers record nothing; the benchmark measures its end-to-end
    metrics with tracing off and the per-layer ledger from a traced run.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            request: Optional[int] = None, span_id: Optional[int] = None) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = span_id if span_id is not None else self.new_id()
        self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                           "parent": parent, "request": request})
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        span_id = self.new_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.add(name, start, time.perf_counter(), parent=parent, span_id=span_id)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


@dataclass
class Sent:
    """One request the generator sent, and what became of it."""

    index: int
    priority: int
    due: float
    sent: float
    handle: object = None
    span: Optional[int] = None
    #: refused | done | shed | failed, and "wrong" once the oracle rejects it.
    outcome: str = "pending"
    #: Digest of the served output, checked by the oracle after the window.
    digest: Optional[bytes] = None
    finished: Optional[float] = None
    deadline_met: bool = False

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


class Generator:
    """Sends requests from the workload's input pool through ``Server.submit``."""

    def __init__(self, server, workload: Workload, pool: np.ndarray,
                 tracer: Tracer) -> None:
        self.server = server
        self.workload = workload
        self.pool = pool
        self.tracer = tracer
        self.next_index = 0

    def send(self, due: float, priority: int = 0,
             deadline_s: Optional[float] = None) -> Sent:
        activation = request_input(self.pool, self.workload, self.next_index)
        record = Sent(index=self.next_index, priority=priority, due=due, sent=0.0)
        self.next_index += 1
        if self.tracer.enabled:
            record.span = self.tracer.new_id()
        record.sent = time.perf_counter()
        try:
            record.handle = self.server.submit(
                activation, deadline_s=deadline_s, priority=priority
            )
        except (ShedError, BackpressureError):
            record.outcome = "refused"
        except ServingError:
            record.outcome = "failed"
        if record.span is not None:
            self.tracer.add("server.submit", record.sent, time.perf_counter(),
                            parent=record.span, request=record.index)
        return record

    def closed_loop(self, sessions: int, seconds: float) -> Tuple[List[Sent], float]:
        """Keep ``sessions`` requests in flight for ``seconds``; returns the
        settled records and the window start.  A session whose request was
        refused sends again at once."""
        start = time.perf_counter()
        stop = start + seconds
        records: List[Sent] = []
        active: List[Sent] = []
        ready = [start] * sessions  # due instants of sessions about to send
        while ready or active:
            if time.perf_counter() < stop:
                refused = []
                for due in ready:
                    record = self.send(due)
                    records.append(record)
                    if record.handle is not None:
                        active.append(record)
                    else:
                        refused.append(time.perf_counter())
                ready = refused
            else:
                ready = []
            if not active:
                continue
            _wait(active[0], POLL_S)
            still = []
            for record in active:
                if record.handle.done():
                    ready.append(record.handle.finished_at)
                    settle(record, self.tracer)
                else:
                    still.append(record)
            active = still
        return records, start

    def open_loop(self, schedule: Sequence[Tuple[float, int, float]]) -> Tuple[List[Sent], float]:
        """Send ``(offset_s, priority, deadline_s)`` arrivals on time; returns
        the settled records and the schedule start.  Replies are collected
        while the generator waits for the next arrival."""
        start = time.perf_counter()
        records = []
        pending: List[Sent] = []
        for offset, priority, deadline_s in schedule:
            due = start + offset
            if pending and time.perf_counter() < due:
                pending = [r for r in pending if not _settle_if_done(r, self.tracer)]
            delay = due - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)
            record = self.send(due, priority, deadline_s)
            records.append(record)
            if record.handle is not None:
                pending.append(record)
        for record in pending:
            settle(record, self.tracer)
        return records, start


def _wait(record: Sent, timeout_s: float) -> None:
    try:
        record.handle.outputs(timeout=timeout_s)
    except Exception:  # noqa: BLE001 - the outcome is classified by settle()
        pass


def _settle_if_done(record: Sent, tracer: Tracer) -> bool:
    if not record.handle.done():
        return False
    settle(record, tracer)
    return True


def settle(record: Sent, tracer: Tracer) -> None:
    """Classify a record's outcome, keep its output's digest for the oracle
    and drop the handle, which holds every stage's output: the harness then
    holds the same memory whatever the server's throughput."""
    handle = record.handle
    try:
        record.digest = digest(handle.result(timeout=RESULT_TIMEOUT_S))
    except (DeadlineExceededError, ShedError):
        record.outcome = "shed"
    except Exception:  # noqa: BLE001 - any other error is a failure
        record.outcome = "failed"
    else:
        record.outcome = "done"
    record.finished = handle.finished_at
    deadline = handle.deadline_at
    record.deadline_met = record.outcome == "done" and (
        deadline is None or record.finished <= deadline
    )
    if record.span is not None and record.finished is not None:
        tracer.add("request", record.sent, record.finished,
                   request=record.index, span_id=record.span)
    record.handle = None
