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
colored engine (one window per color class) run.  A round is one
foreign call, ``native.KERNEL.round``: C evaluates each window on the
pool, commits it, and returns the round's movers in window order plus
each window's integers (its commit's contention, its pair count and its
degree profile).  Python charges the round from those through
:meth:`~repro.parallel.scheduler.CostLedger.charge_later`, so the
regions of every round charged since the ledger was last read are built
in one vectorized pass (with instrumentation on, the round barrier
reads the ledger to lay the worker lanes, so that is once per round),
and replays the per-window metrics when instrumentation is on.  Fault
runs and states C cannot commit into keep the per-window loop, with one
kernel call and one commit per window.
The round's gain is summed only when instrumentation is on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.config import ClusteringConfig, Mode
from repro.core.frontier import next_frontier
from repro.core.moves import (
    batch_costs,
    compute_batch_moves,
    fault_free,
    kernel_threads,
    profile_depth,
    window_profiles,
    worst_depth,
)
from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph
from repro.kernels import native
from repro.obs.instrument import M_KERNEL_BATCH, M_KERNEL_SEGMENTS, instr_of
from repro.parallel.atomics import fetch_add_costs, record_fetch_add


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


def _round_gain(gains: np.ndarray, moved: np.ndarray) -> float:
    """The movers' ``gains``, in window order with ``moved[i]`` of them in
    window ``i``, summed per window and then over the windows."""
    total = 0.0
    start = 0
    for count in moved.tolist():
        if count:
            total += float(gains[start:start + count].sum())
            start += count
    return total


#: The regions a C round charges per window, by slot: its evaluation,
#: then its commit's two fetch-and-add windows, each followed by its
#: contention (:func:`~repro.parallel.atomics.fetch_add_costs`); and,
#: after the round's last window, the round's depth when its windows
#: charge none.
_SLOT_LABELS = np.array(
    ["best-moves", "K-dec", "K-dec-contention", "K-inc", "K-inc-contention",
     "best-moves-iter"],
    dtype=object,
)


def _round_regions(rounds):
    """The ledger regions of rounds run in C, built together for
    :meth:`~repro.parallel.scheduler.CostLedger.charge_later`.

    ``rounds`` lists one ``(windows, charge_depth, num_vertices)`` per
    round: its :class:`~repro.kernels.native.RoundWindows`, whether each
    window charges its own depth, and the graph's vertex count.  Returns
    each round's ``(labels, work, depth, serial)`` columns: the regions
    the per-window loop charges, in its order, with its values (see
    :data:`_SLOT_LABELS`).
    """
    counts = [r[0].moved.size for r in rounds]
    firsts = np.cumsum([0] + counts[:-1])
    windows = native.RoundWindows(
        *map(np.concatenate, zip(*(r[0] for r in rounds)))
    )
    moved, profiles = windows.moved, windows.profiles
    # One (work, depth, serial) per window and slot; a slot is charged
    # where ``present``.
    table = np.zeros((moved.size, _SLOT_LABELS.size, 3))
    present = np.zeros(table.shape[:2], dtype=bool)
    table[:, 0, 0], table[:, 0, 1] = batch_costs(
        profiles, np.repeat([r[1] for r in rounds], counts)
    )
    present[:, 0] = profiles[:, 0] > 0
    commits = (
        (1, windows.dec_retries, windows.dec_longest),
        (3, windows.inc_retries, windows.inc_longest),
    )
    for slot, retries, longest in commits:
        regions = fetch_add_costs(moved, retries, longest)
        for offset, costs in enumerate(regions):
            for column, values in enumerate(costs):
                table[:, slot + offset, column] = values
        present[:, slot] = moved > 0
        present[:, slot + 1] = (moved > 0) & (retries > 0)
    # A round without per-window depth charges its worst kernel
    # (profile_depth over its windows) plus the frontier's 2 log2 n after
    # its last window.
    seq_max = np.maximum.reduceat(profiles[:, 4], firsts).tolist()
    par_count = np.maximum.reduceat(profiles[:, 2], firsts).tolist()
    par_max = np.maximum.reduceat(profiles[:, 5], firsts).tolist()
    for i, (_, charge_depth, num_vertices) in enumerate(rounds):
        if not charge_depth:
            last = firsts[i] + counts[i] - 1
            table[last, 5, 1] = worst_depth(
                seq_max[i], par_count[i], par_max[i]
            ) + 2.0 * math.log2(max(num_vertices, 2))
            present[last, 5] = True
    work, depth, serial = table[present].T
    labels = _SLOT_LABELS[np.nonzero(present)[1]].tolist()
    ends = np.cumsum(np.add.reduceat(present.sum(axis=1), firsts)).tolist()
    return [
        (labels[a:b], work[a:b], depth[a:b], serial[a:b])
        for a, b in zip([0] + ends[:-1], ends)
    ]


def _replay_round_metrics(instr, windows: native.RoundWindows) -> None:
    """The metrics of each window of a C round, in window order, as
    ``NativeKernel.batch_moves``, ``compute_batch_moves`` and
    ``atomic_add_window`` record them."""
    columns = (
        windows.moved, windows.pairs, windows.profiles[:, 0],
        windows.dec_retries, windows.dec_longest,
        windows.inc_retries, windows.inc_longest,
    )
    for moved, pairs, size, *commit in zip(*(c.tolist() for c in columns)):
        if not size:
            continue
        instr.observe(M_KERNEL_SEGMENTS, float(pairs))
        instr.observe(M_KERNEL_BATCH, float(size))
        if moved:
            record_fetch_add(instr, moved, *commit[:2], "K-dec")
            record_fetch_add(instr, moved, *commit[2:], "K-inc")


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

    The whole round is one C call (``native.KERNEL.round``); its ledger
    regions are built from the windows' integers it returns when the
    ledger is next read (:func:`_round_regions`).  Where that call
    cannot run (a fault plan on ``sched`` or a ``FaultyClusterState``,
    see :func:`~repro.core.moves.fault_free`; state arrays C cannot
    write in place) the windows run one by one through
    :func:`~repro.core.moves.compute_batch_moves` and
    ``state.apply_moves``, the reference path, with the same results,
    regions, metrics and lane records.
    """
    obs = instr_of(sched)
    threshold = config.kernel_threshold
    native_round = None
    if fault_free(state, sched):
        native_round = native.KERNEL.round(
            graph, state, order, starts, resolution, threshold=threshold,
            allow_escape=config.escape_moves, swap_avoidance=swap_avoidance,
            threads=native.usable_cores(),
        )
    if native_round is not None:
        movers, origins, targets, gains, windows = native_round
        if sched is not None:
            sched.ledger.charge_later(
                _round_regions, (windows, charge_depth, graph.num_vertices)
            )
            if obs.enabled:
                _replay_round_metrics(obs, windows)
        moved = windows.moved
    else:
        movers, origins, targets, gains, moved = _window_loop(
            graph, state, resolution, config, order, starts, sched,
            charge_depth, swap_avoidance,
        )
    gain = _round_gain(gains, moved) if obs.enabled else 0.0
    return movers, origins, targets, gain


def _window_loop(
    graph, state, resolution, config, order, starts, sched, charge_depth,
    swap_avoidance,
):
    """:func:`window_round`'s reference path: one kernel call and one
    commit per window.  Returns the movers in window order with their
    origins, targets and gains, and each window's mover count."""
    threshold = config.kernel_threshold
    offsets = graph.offsets
    # Bookkeeping is per round: one degree profile for every window, and
    # each window's origins (read at its start, after the windows before
    # it committed) and targets in round-sized arrays, from which the
    # movers come after the last window.
    profiles = window_profiles(
        offsets[order + 1] - offsets[order], threshold, starts
    )
    bounds = starts.tolist() + [order.size]
    origins = np.empty(order.size, dtype=np.int64)
    targets = np.empty(order.size, dtype=np.int64)
    gains = np.empty(order.size, dtype=np.float64)
    threads = kernel_threads(state, sched)
    for start, end, profile in zip(bounds, bounds[1:], profiles.tolist()):
        window = order[start:end]
        origins[start:end] = state.assignments[window]
        targets[start:end], gains[start:end] = compute_batch_moves(
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
        state.apply_moves(window, targets[start:end], sched=sched)
    if sched is not None and not charge_depth:
        sched.charge(
            work=0.0,
            depth=profile_depth(profiles)
            + 2.0 * math.log2(max(graph.num_vertices, 2)),
            label="best-moves-iter",
        )
    moving = targets != origins
    moved = np.add.reduceat(moving, starts, dtype=np.int64)
    return order[moving], origins[moving], targets[moving], gains[moving], moved


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
                # the simulated lanes join here and the round's rows are
                # laid onto them.
                sched.round_barrier(items=frontier_size)
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
