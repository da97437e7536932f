"""The benchmark's workloads and the seeded inputs each one sends.

Every workload serves a five-stage W4A8 ``llama_block_gemms`` chain built from
a custom ``LlamaConfig`` on the threads tier (two workers, micro-batches of up
to 16).  Load comes from one generator thread.  The program receives only the
generated activations; weights reach it through ``compile_workload(seed=)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

WEIGHT_BITS = 4
ACTIVATION_BITS = 8
NUM_WORKERS = 2
MAX_BATCH = 16
MAX_PENDING = 128


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hidden: int
    intermediate: int
    #: Activation columns per request.
    columns: int
    #: Closed-loop concurrency (the overload workload's phase A).
    in_flight: int
    #: Upper bound on requests sent per second; sizes the pre-generated
    #: input pool, which is reused cyclically past it.
    max_rate: float
    overload: bool = False


DECODE = Workload(
    name="decode",
    why=(
        "many tiny stage-requests: the 1-column kernel plus queue, batcher and "
        "stage-continuation overhead, so kernel and orchestration changes show"
    ),
    hidden=1024,
    intermediate=2752,
    columns=1,
    in_flight=8,  # sessions; each sends its next token when the last returns
    max_rate=1000.0,
)

PREFILL = Workload(
    name="prefill",
    why=(
        "32-column prompt chunks: compile and kernel time dominate, and stage "
        "outputs straddle the 2^53 float64-exact bound"
    ),
    hidden=2048,
    intermediate=5504,
    columns=32,
    in_flight=2,
    max_rate=20.0,
)

OVERLOAD = Workload(
    name="overload",
    why=(
        "2x the run's own capacity offered open-loop: admission, priority "
        "lanes and shedding decide who is served"
    ),
    hidden=512,
    intermediate=1376,
    columns=1,
    in_flight=32,  # phase A, which measures the run's capacity
    max_rate=5000.0,
    overload=True,
)

WORKLOADS = {w.name: w for w in (DECODE, PREFILL, OVERLOAD)}

#: Overload phase B: total offered load and its priority-0 part, as
#: multiples of the capacity phase A measured.
OFFERED_FACTOR = 2.0
P0_FACTOR = 0.95
#: Priority-1 requests arrive in bursts of this size.
P1_BURST = 8
#: Priority-1 deadline in service times (1 / capacity): servable while the
#: queue is short, doomed once a backlog builds.
P1_DEADLINE_SERVICES = 8.0
#: Share of the run's seconds spent in phase A; phase B gets the rest.
PHASE_A_SHARE = 0.5


def input_pool(workload: Workload, seed: int, seconds: float) -> np.ndarray:
    """Seeded A8 activation columns, one ``columns``-wide block per request."""
    requests = max(64, int(np.ceil(workload.max_rate * seconds)))
    rng = np.random.default_rng([seed, 1])
    low, high = -(1 << (ACTIVATION_BITS - 1)), 1 << (ACTIVATION_BITS - 1)
    return rng.integers(
        low, high, size=(workload.hidden, requests * workload.columns), dtype=np.int8
    )


def request_input(pool: np.ndarray, workload: Workload, index: int) -> np.ndarray:
    """The int64 activation of request ``index`` (the pool is reused cyclically)."""
    blocks = pool.shape[1] // workload.columns
    start = (index % blocks) * workload.columns
    return np.ascontiguousarray(pool[:, start:start + workload.columns], dtype=np.int64)


def overload_schedule(
    seed: int, capacity_rps: float, seconds: float
) -> List[Tuple[float, int, float]]:
    """Phase B arrivals: sorted ``(offset_s, priority, deadline_s)``.

    Priority 0 is Poisson at ``P0_FACTOR`` x capacity with a deadline far past
    the phase; priority 1 makes up the rest of ``OFFERED_FACTOR`` x capacity
    in bursts at Poisson instants, with a deadline of a few service times.
    """
    rng = np.random.default_rng([seed, 2])
    p0_rate = P0_FACTOR * capacity_rps
    burst_rate = (OFFERED_FACTOR - P0_FACTOR) * capacity_rps / P1_BURST
    p0_deadline = max(10.0 * seconds, 1.0)
    p1_deadline = P1_DEADLINE_SERVICES / capacity_rps
    arrivals: List[Tuple[float, int, float]] = []
    for rate, priority, size, deadline in (
        (p0_rate, 0, 1, p0_deadline),
        (burst_rate, 1, P1_BURST, p1_deadline),
    ):
        t = rng.exponential(1.0 / rate)
        while t < seconds:
            arrivals.extend((t, priority, deadline) for _ in range(size))
            t += rng.exponential(1.0 / rate)
    arrivals.sort(key=lambda a: a[0])
    return arrivals
