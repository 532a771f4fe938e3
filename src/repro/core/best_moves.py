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

The module holds the two loops every engine in
:data:`repro.core.engines.ENGINES` shares.  :func:`iterate_rounds` is
the iteration itself: frontier, iteration bound, one permutation draw
per round, the ``round`` span and metrics, convergence, the next
frontier and the round barrier; an engine supplies only the round
function that moves one permuted frontier.  :func:`window_round` is the
evaluate-and-commit loop over a round's windows, which the relaxed
engine (both settings; synchronous mode is a single window) and the
colored engine (one window per color class) run.  Each window costs two
foreign calls, the kernel through
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
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.config import ClusteringConfig, Mode
from repro.core.frontier import next_frontier
from repro.core.moves import (
    compute_batch_moves,
    degree_profile,
    kernel_threads,
    profile_depth,
)
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


#: What one round moved: ``(movers, origins, targets, gain)``, the movers
#: in commit order with their origin and target clusters, and the summed
#: gain of the moves (:func:`window_round` sums it only when
#: instrumentation is on, and returns 0.0 otherwise).
RoundMoves = Tuple[np.ndarray, np.ndarray, np.ndarray, float]


def _window_starts(size: int, config: ClusteringConfig) -> np.ndarray:
    """First position of each concurrency window of a ``size``-vertex
    iteration.

    Synchronous mode is a single window (one snapshot for everyone).
    Asynchronous mode uses ``async_windows`` windows regardless of
    frontier size: on small frontiers windows degenerate to single
    vertices — matching true asynchrony, where memory updates become
    visible at far finer granularity than the frontier — while on large
    frontiers the window is the staleness horizon within which concurrent
    threads read each other's pre-move state (DESIGN.md §2).  The
    boundaries are ``np.array_split``'s: the first ``size % windows``
    windows are one longer.
    """
    if config.mode is Mode.SYNC:
        return np.zeros(1, dtype=np.int64)
    num_windows = max(1, min(config.async_windows, size))
    each, extra = divmod(size, num_windows)
    index = np.arange(num_windows, dtype=np.int64)
    return index * each + np.minimum(index, extra)


def _round_gain(gains: np.ndarray, moving: np.ndarray, bounds) -> float:
    """The movers' gains, summed per window and then over the windows."""
    total = 0.0
    for start, end in zip(bounds, bounds[1:]):
        window_moving = moving[start:end]
        if window_moving.any():
            total += float(gains[start:end][window_moving].sum())
    return total


def window_round(
    graph: CSRGraph,
    state: ClusterState,
    resolution: float,
    config: ClusteringConfig,
    order: np.ndarray,
    starts: np.ndarray,
    sched=None,
    charge_depth: bool = True,
    swap_avoidance: bool = False,
) -> RoundMoves:
    """Evaluate and commit ``order`` window by window.

    Window ``i`` is ``order[starts[i]:starts[i + 1]]``; its vertices read
    the state left by the windows before it and commit together.  With
    ``charge_depth`` every window is a barrier and charges its own
    critical path; without it the windows run back to back and the round
    charges one ``best-moves-iter`` depth term after the last window.
    """
    obs = instr_of(sched)
    threshold = config.kernel_threshold
    offsets = graph.offsets
    # Bookkeeping is per round: one degree profile for every window, and
    # each window's origins (read at its start, after the windows before
    # it committed) and targets in round-sized arrays, from which the
    # movers come after the last window.
    profiles = degree_profile(offsets[order + 1] - offsets[order], threshold, starts)
    bounds = starts.tolist() + [order.size]
    origins = np.empty(order.size, dtype=np.int64)
    targets = np.empty(order.size, dtype=np.int64)
    gains = np.empty(order.size, dtype=np.float64) if obs.enabled else None
    threads = kernel_threads(state, sched)
    for start, end, profile in zip(bounds, bounds[1:], profiles):
        window = order[start:end]
        origins[start:end] = state.assignments[window]
        window_targets, window_gains = compute_batch_moves(
            graph,
            state,
            window,
            resolution,
            sched=sched,
            kernel_threshold=threshold,
            charge_depth=charge_depth,
            allow_escape=config.escape_moves,
            swap_avoidance=swap_avoidance,
            profile=profile,
            threads=threads,
        )
        targets[start:end] = window_targets
        if gains is not None:
            gains[start:end] = window_gains
        state.apply_moves(window, window_targets, sched=sched)
    if sched is not None and not charge_depth:
        sched.charge(
            work=0.0,
            depth=profile_depth(profiles)
            + 2.0 * math.log2(max(graph.num_vertices, 2)),
            label="best-moves-iter",
        )
    moving = targets != origins
    gain = _round_gain(gains, moving, bounds) if gains is not None else 0.0
    return order[moving], origins[moving], targets[moving], gain


def iterate_rounds(
    graph: CSRGraph,
    state: ClusterState,
    config: ClusteringConfig,
    engine: str,
    round_fn: Callable[[np.ndarray], RoundMoves],
    sched=None,
    rng: Optional[np.random.Generator] = None,
    initial_frontier: Optional[np.ndarray] = None,
) -> BestMovesStats:
    """The BEST-MOVES iteration every engine shares.

    Each round draws one permutation of the frontier, hands it to
    ``round_fn`` (which moves the vertices and returns ``(movers,
    origins, targets, gain)``), records the round under ``engine``'s
    name, and stops when a round moves nothing, the frontier empties, or
    ``config.iteration_bound`` rounds have run.
    """
    stats = BestMovesStats()
    obs = instr_of(sched)
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
            "round", engine=engine, iteration=stats.iterations,
            frontier=frontier_size,
        ) as round_span:
            order = rng.permutation(active) if rng is not None else active
            movers, origins, targets, gain = round_fn(order)
            stats.iterations += 1
            round_moves = int(movers.size)
            round_span.set(moves=round_moves, gain=gain)
            obs.record_round(engine, frontier_size, round_moves, gain)
            if round_moves == 0:
                stats.converged = True
                break
            stats.total_moves += round_moves
            active = next_frontier(
                graph,
                state.assignments,
                movers,
                origins,
                targets,
                config.frontier,
                sched=sched,
            )
            if sched is not None:
                # Round boundary: every worker feeds the next frontier, so
                # the simulated lanes join here (recording idle waits).
                sched.round_barrier()
    return stats


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
    # Synchronous mode has exactly one window, whose depth is the round's
    # critical path; asynchronous windows charge work only.
    sync = config.mode is Mode.SYNC

    def relaxed_round(order: np.ndarray) -> RoundMoves:
        return window_round(
            graph, state, resolution, config, order,
            _window_starts(order.size, config), sched,
            charge_depth=sync, swap_avoidance=sync,
        )

    return iterate_rounds(
        graph, state, config, "relaxed", relaxed_round, sched, rng,
        initial_frontier,
    )
