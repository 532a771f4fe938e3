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

from repro.core.best_moves import BestMovesStats, RoundMoves, iterate_rounds
from repro.core.config import ClusteringConfig
from repro.core.louvain_par import MultiLevelStats, multilevel_louvain
from repro.core.state import ClusterState
from repro.kernels import native
from repro.graphs.csr import CSRGraph
from repro.graphs.stats import MemoryTracker


def _sequential_sweep(
    graph: CSRGraph,
    state: ClusterState,
    order: np.ndarray,
    resolution: float,
    sched=None,
    allow_escape: bool = True,
) -> RoundMoves:
    """One sweep of immediate best moves.

    Evaluation (and the exact sequence of ``move_one`` state mutations)
    is the native kernel's ``sweep`` — the C loop, or the bit-identical
    dict vertex-at-a-time loop for a state C cannot commit into, such as
    a ``FaultyClusterState`` (DESIGN.md §8).  The
    sweep's simulated cost is charged here: pure sequential work, so a
    one-worker run's simulated time is its total work.

    Returns ``(movers, origins, targets, total_gain)``.
    """
    movers, origins, targets, total_gain = native.KERNEL.sweep(
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
    """Sequential analogue of BEST-MOVES: sweeps until stable or bounded.

    One lane, but the round barrier still closes each sweep's chunk
    stream, so timelines segment per sweep.
    """

    def sweep_round(order: np.ndarray) -> RoundMoves:
        return _sequential_sweep(
            graph, state, order, resolution, sched=sched,
            allow_escape=config.escape_moves,
        )

    return iterate_rounds(
        graph, state, config, "sequential", sweep_round, sched, rng,
        initial_frontier,
    )


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
