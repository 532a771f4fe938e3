"""Event-driven fine-grained asynchrony (validation engine).

The production engine models asynchronous execution with batched
concurrency windows (DESIGN.md §2).  This module implements the *ground
truth* that approximation stands in for: a discrete-event simulation of
``P`` workers processing vertices from a shared queue, where each
vertex's best-move computation

* **starts** at some simulated time, reading the shared state as of that
  instant (cluster assignments and weights), and
* **commits** at start + duration (duration proportional to the vertex's
  degree), applying its move against whatever the state has become —
  exactly the stale-read/atomic-commit semantics of the paper's
  lock-free implementation (Section 3.2.1).

Being a Python event loop it is far slower in wall-clock than the
batched engine, so it serves as a *validation oracle*: the ablation
bench ``bench_ablation_event.py`` shows the batched engine matches its
objective, which is the empirical justification for the window model.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from repro.core.best_moves import BestMovesStats, RoundMoves, iterate_rounds
from repro.core.config import ClusteringConfig
from repro.core.state import ClusterState
from repro.kernels.reference import reference_single_move
from repro.graphs.csr import CSRGraph


def _event_iteration(
    graph: CSRGraph,
    state: ClusterState,
    order: np.ndarray,
    resolution: float,
    num_workers: int,
    allow_escape: bool,
) -> RoundMoves:
    """One pass over ``order`` with P concurrent workers.

    Returns (movers, origins, targets, gain).  Commit-time conflict rule: the
    move applies only if the vertex's cluster is unchanged since its read
    (a failed CAS re-queues the vertex once, as real implementations
    retry).

    The oracle commits one vertex at a time, so it evaluates each vertex
    with the dict loop (:func:`reference_single_move`), which the native
    kernel matches bit for bit.
    """
    # Event heap holds (finish_time, sequence, vertex, read_assignment,
    # target, gain).  Workers pick up the next queued vertex when they
    # finish.
    degrees = graph.offsets[order + 1] - graph.offsets[order]
    durations = 1.0 + degrees.astype(np.float64)
    queue_position = 0
    sequence = 0
    heap: List[tuple] = []
    movers: List[int] = []
    origins: List[int] = []
    targets_out: List[int] = []
    total_gain = 0.0
    retried = set()

    def start_task(now: float) -> None:
        nonlocal queue_position, sequence
        v = int(order[queue_position])
        duration = float(durations[queue_position])
        queue_position += 1
        target, gain = reference_single_move(
            graph, state, v, resolution, allow_escape=allow_escape
        )
        read_assignment = int(state.assignments[v])
        heapq.heappush(
            heap, (now + duration, sequence, v, read_assignment, target, gain)
        )
        sequence += 1

    now = 0.0
    for _ in range(min(num_workers, order.size)):
        start_task(now)
    extra_queue: List[int] = []
    while heap:
        now, _seq, v, read_assignment, target, gain = heapq.heappop(heap)
        current = int(state.assignments[v])
        if target != current:
            if current == read_assignment:
                # CAS succeeds: commit the move.
                origins.append(current)
                state.move_one(v, target)
                movers.append(v)
                targets_out.append(target)
                total_gain += float(gain)
            elif v not in retried:
                # CAS failed (vertex moved under us): retry once.
                retried.add(v)
                extra_queue.append(v)
        if queue_position < order.size:
            start_task(now)
        elif extra_queue:
            retry_v = extra_queue.pop()
            target, gain = reference_single_move(
                graph, state, retry_v, resolution, allow_escape=allow_escape
            )
            heapq.heappush(
                heap,
                (now + 1.0 + graph.degree(retry_v), sequence, retry_v,
                 int(state.assignments[retry_v]), target, gain),
            )
            sequence += 1
    return (
        np.asarray(movers, dtype=np.int64),
        np.asarray(origins, dtype=np.int64),
        np.asarray(targets_out, dtype=np.int64),
        total_gain,
    )


def run_event_driven_best_moves(
    graph: CSRGraph,
    state: ClusterState,
    resolution: float,
    config: ClusteringConfig,
    sched=None,
    rng: Optional[np.random.Generator] = None,
    initial_frontier: Optional[np.ndarray] = None,
) -> BestMovesStats:
    """BEST-MOVES under the event-driven asynchrony model."""

    def event_round(order: np.ndarray) -> RoundMoves:
        moved = _event_iteration(
            graph, state, order, resolution, config.resolved_workers,
            config.escape_moves,
        )
        if sched is not None:
            degrees = graph.offsets[order + 1] - graph.offsets[order]
            sched.charge(
                work=float(degrees.sum()) + 4.0 * order.size,
                depth=float(degrees.max()) if degrees.size else 1.0,
                label="event-async",
            )
        return moved

    return iterate_rounds(
        graph, state, config, "event", event_round, sched, rng,
        initial_frontier,
    )
