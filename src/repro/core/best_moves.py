"""BEST-MOVES: the inner loop of Algorithm 1.

Repeatedly (up to ``num_iter`` times, for convergence is not guaranteed
under concurrent moves) lets every frontier vertex move to the cluster
maximizing its own objective.  Scheduling of the moves follows
Section 3.2.1:

* **synchronous** — the whole frontier computes desired clusters against
  one snapshot, then all moves apply in lockstep.  No symmetry breaking:
  mutually attracted vertices can jointly land in a bad cluster (Figure 1),
  which is why this setting often yields negative CC objectives.
* **asynchronous** — the (shuffled) frontier is processed in *concurrency
  windows* of roughly the worker count; within a window all vertices read
  the window-start state (the stale reads real concurrent threads see) and
  moves apply atomically between windows, with CAS contention charged per
  window.  Randomized window membership provides the symmetry breaking the
  paper credits for the asynchronous setting's quality.

Both settings run one loop (synchronous mode is a single window).  Each
window costs two foreign calls, the kernel through
:func:`~repro.core.moves.compute_batch_moves` and the commit through
``ClusterState.apply_moves``; the bookkeeping around them is per round:
one degree profile gives every window's charge, each window's origins
and targets go into round-sized arrays, and the movers are picked out
once after the last window, in window order.  The round's gain is summed
only when instrumentation is on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import ClusteringConfig, Mode
from repro.core.frontier import next_frontier
from repro.core.moves import compute_batch_moves, degree_profile, profile_depth
from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph
from repro.obs.instrument import instr_of


@dataclass
class BestMovesStats:
    """Diagnostics from one BEST-MOVES invocation."""

    iterations: int = 0
    total_moves: int = 0
    #: |V'| at the start of each iteration (Figure 11's series).
    frontier_sizes: List[int] = field(default_factory=list)
    converged: bool = False


def _windows(
    order: np.ndarray, config: ClusteringConfig
) -> List[np.ndarray]:
    """Split an iteration's frontier into concurrency windows.

    Synchronous mode is a single window (one snapshot for everyone).
    Asynchronous mode uses ``async_windows`` windows regardless of
    frontier size: on small frontiers windows degenerate to single
    vertices — matching true asynchrony, where memory updates become
    visible at far finer granularity than the frontier — while on large
    frontiers the window is the staleness horizon within which concurrent
    threads read each other's pre-move state (DESIGN.md §2).
    """
    if config.mode is Mode.SYNC:
        return [order]
    # np.array_split's boundaries (the first ``extra`` windows are one
    # longer), sliced directly: array_split costs ~2 us per window.
    num_windows = max(1, min(config.async_windows, order.size))
    each, extra = divmod(order.size, num_windows)
    windows = []
    start = 0
    for i in range(num_windows):
        end = start + each + (i < extra)
        windows.append(order[start:end])
        start = end
    return windows


def _round_gain(gains: np.ndarray, moving: np.ndarray, starts) -> float:
    """The movers' gains, summed per window and then over the windows."""
    total = 0.0
    for start, end in zip(starts, list(starts[1:]) + [gains.size]):
        window_moving = moving[start:end]
        if window_moving.any():
            total += float(gains[start:end][window_moving].sum())
    return total


def run_best_moves(
    graph: CSRGraph,
    state: ClusterState,
    resolution: float,
    config: ClusteringConfig,
    sched=None,
    rng: Optional[np.random.Generator] = None,
    initial_frontier: Optional[np.ndarray] = None,
) -> BestMovesStats:
    """Run BEST-MOVES in place on ``state``; returns iteration diagnostics."""
    stats = BestMovesStats()
    obs = instr_of(sched)
    sync = config.mode is Mode.SYNC
    threshold = config.kernel_threshold
    offsets = graph.offsets
    active = (
        np.arange(graph.num_vertices, dtype=np.int64)
        if initial_frontier is None
        else np.asarray(initial_frontier, dtype=np.int64)
    )
    for _ in range(config.iteration_bound):
        if active.size == 0:
            stats.converged = True
            break
        frontier_size = int(active.size)
        stats.frontier_sizes.append(frontier_size)
        with obs.span(
            "round", engine="relaxed", iteration=stats.iterations,
            frontier=frontier_size,
        ) as round_span:
            order = rng.permutation(active) if rng is not None else active
            windows = _windows(order, config)
            starts = [0]
            for window in windows[:-1]:
                starts.append(starts[-1] + window.size)
            # Bookkeeping is per round: one degree profile for every
            # window, and each window's origins (read at its start, after
            # the windows before it committed) and targets in round-sized
            # arrays, from which the movers come after the last window.
            profiles = degree_profile(
                offsets[order + 1] - offsets[order], threshold, np.asarray(starts)
            )
            origins = np.empty(order.size, dtype=np.int64)
            targets = np.empty(order.size, dtype=np.int64)
            gains = np.empty(order.size, dtype=np.float64) if obs.enabled else None
            # Asynchronous windows run back to back with no barrier, so the
            # per-window kernels charge work only; one critical-path term per
            # iteration is charged below.  Synchronous mode has exactly one
            # window, whose depth is that term.
            for window, start, profile in zip(windows, starts, profiles):
                end = start + window.size
                origins[start:end] = state.assignments[window]
                window_targets, window_gains = compute_batch_moves(
                    graph,
                    state,
                    window,
                    resolution,
                    sched=sched,
                    kernel_threshold=threshold,
                    charge_depth=sync,
                    allow_escape=config.escape_moves,
                    swap_avoidance=sync,
                    kernel=config.kernel,
                    profile=profile,
                )
                targets[start:end] = window_targets
                if gains is not None:
                    gains[start:end] = window_gains
                state.apply_moves(window, window_targets, sched=sched)
            if sched is not None and not sync:
                sched.charge(
                    work=0.0,
                    depth=profile_depth(profiles)
                    + 2.0 * math.log2(max(graph.num_vertices, 2)),
                    label="best-moves-iter",
                )
            stats.iterations += 1
            moving = targets != origins
            movers = order[moving]
            round_moves = int(movers.size)
            round_gain = (
                _round_gain(gains, moving, starts) if gains is not None else 0.0
            )
            round_span.set(moves=round_moves, gain=round_gain)
            obs.record_round("relaxed", frontier_size, round_moves, round_gain)
            if round_moves == 0:
                stats.converged = True
                break
            stats.total_moves += round_moves
            active = next_frontier(
                graph,
                state.assignments,
                movers,
                origins[moving],
                targets[moving],
                config.frontier,
                sched=sched,
            )
            if sched is not None:
                # Round boundary: every worker feeds the next frontier, so
                # the simulated lanes join here (recording idle waits).
                sched.round_barrier()
    return stats
