"""SEQUENTIAL-CC: the classic sequential Louvain method (Algorithm 2).

Vertices are visited one at a time in a fresh random permutation per sweep
and moved immediately to their best cluster; sweeps repeat until the
objective stops improving (no vertex moves), bounded by ``num_iter`` unless
running to convergence (the ``^CON`` variants).  Following Section 4.2, the
sequential baselines include the applicable Section 3.2 optimizations:
frontier restriction (sweeping only over V') and multi-level refinement —
both supplied by the shared multi-level driver.

Costs are charged to the ledger as pure sequential work (a one-worker
run's simulated time is its total work), so PAR-over-SEQ speedups compare
like with like.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.best_moves import BestMovesStats
from repro.core.config import ClusteringConfig
from repro.core.frontier import next_frontier
from repro.core.louvain_par import MultiLevelStats, multilevel_louvain
from repro.core.state import ClusterState
from repro.kernels import DEFAULT_KERNEL, get_kernel
from repro.graphs.csr import CSRGraph
from repro.graphs.stats import MemoryTracker
from repro.obs.instrument import instr_of


def _sequential_sweep(
    graph: CSRGraph,
    state: ClusterState,
    order: np.ndarray,
    resolution: float,
    sched=None,
    allow_escape: bool = True,
    kernel: str = DEFAULT_KERNEL,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One sweep of immediate best moves.

    Evaluation (and the exact sequence of ``move_one`` state mutations)
    is delegated to the selected kernel's ``sweep`` — the native C loop
    or the dict vertex-at-a-time loop, which are bit-identical
    (DESIGN.md §8).  The sweep's simulated cost is charged
    here, identically for every kernel: pure sequential work, so a
    one-worker run's simulated time is its total work.

    Returns ``(movers, origins, targets, total_gain)``.
    """
    movers, origins, targets, total_gain = get_kernel(kernel).sweep(
        graph, state, order, resolution, allow_escape=allow_escape
    )
    if sched is not None:
        degrees = graph.offsets[order + 1] - graph.offsets[order]
        work = float(degrees.sum()) + 4.0 * order.size
        sched.charge(work=work, depth=work, label="seq-sweep")
    return movers, origins, targets, total_gain


def sequential_best_moves(
    graph: CSRGraph,
    state: ClusterState,
    resolution: float,
    config: ClusteringConfig,
    sched=None,
    rng: Optional[np.random.Generator] = None,
    initial_frontier: Optional[np.ndarray] = None,
) -> BestMovesStats:
    """Sequential analogue of BEST-MOVES: sweeps until stable or bounded."""
    stats = BestMovesStats()
    obs = instr_of(sched)
    n = graph.num_vertices
    active = (
        np.arange(n, dtype=np.int64)
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
            "round", engine="sequential", iteration=stats.iterations,
            frontier=frontier_size,
        ) as round_span:
            order = rng.permutation(active) if rng is not None else active
            movers, origins, targets, gain = _sequential_sweep(
                graph, state, order, resolution, sched=sched,
                allow_escape=config.escape_moves, kernel=config.kernel,
            )
            stats.iterations += 1
            round_span.set(moves=int(movers.size), gain=gain)
            obs.record_round(
                "sequential", frontier_size, int(movers.size), gain
            )
            if movers.size == 0:
                stats.converged = True
                break
            stats.total_moves += int(movers.size)
            active = next_frontier(
                graph, state.assignments, movers, origins, targets,
                config.frontier, sched=sched,
            )
            if sched is not None:
                # One lane, but the boundary still closes the round's
                # chunk stream so timelines segment per sweep.
                sched.round_barrier()
    return stats


def sequential_cc(
    graph: CSRGraph,
    resolution: float,
    config: ClusteringConfig,
    sched=None,
    rng: Optional[np.random.Generator] = None,
    memory: Optional[MemoryTracker] = None,
    resilience=None,
) -> Tuple[np.ndarray, MultiLevelStats]:
    """Multi-level SEQUENTIAL-CC; same contract as
    :func:`repro.core.louvain_par.parallel_cc`."""
    return multilevel_louvain(
        graph,
        resolution,
        config,
        sequential_best_moves,
        sched=sched,
        rng=rng,
        memory=memory,
        resilience=resilience,
    )
