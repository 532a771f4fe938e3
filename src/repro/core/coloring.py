"""Coloring-based conflict-free parallel Louvain (Grappolo-style).

The paper's reference [27] (Lu, Halappanavar, Kalyanaraman — the basis of
Grappolo) parallelizes Louvain differently from both the synchronous and
asynchronous settings: compute a distance-1 vertex coloring, then process
color classes one after another, all vertices *within* a class in
parallel.  Same-colored vertices are pairwise non-adjacent, so their
concurrent moves never read each other's stale neighborhoods — a
middle ground between full lockstep (conflicts) and full asynchrony
(no guarantees):

* within a color class, a lockstep window is safe for *adjacency*
  conflicts but still shares cluster-weight state;
* across classes, moves are visible immediately (asynchronous flavor).

Implemented here as a third scheduling engine with the greedy parallel
coloring charged to the ledger; the ablation bench compares it to the
paper's chosen asynchronous setting (the paper's own finding: "our
asynchronous setting outperforms methods that maintain consistency
guarantees in quality and speed").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.best_moves import (
    BestMovesStats,
    RoundMoves,
    iterate_rounds,
    window_round,
)
from repro.core.config import ClusteringConfig
from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph


def greedy_coloring(graph: CSRGraph, sched=None) -> np.ndarray:
    """Distance-1 greedy coloring (first-fit in vertex order).

    Returns a color per vertex; adjacent vertices always differ.  Uses at
    most ``max_degree + 1`` colors.  Charged as the parallel
    speculation-and-repair coloring Grappolo uses: work O(m), depth
    O(log n) per round, a handful of rounds.
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        nbrs = graph.neighbors[graph.offsets[v]: graph.offsets[v + 1]]
        used = set(colors[nbrs].tolist())
        color = 0
        while color in used:
            color += 1
        colors[v] = color
    if sched is not None:
        sched.charge(
            work=float(graph.num_directed_edges + n),
            depth=np.log2(max(n, 2)) * 4.0,
            label="coloring",
        )
    return colors


def verify_coloring(graph: CSRGraph, colors: np.ndarray) -> bool:
    """Check no edge connects same-colored endpoints."""
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.offsets)
    )
    return not bool(np.any(colors[src] == colors[graph.neighbors]))


def run_colored_best_moves(
    graph: CSRGraph,
    state: ClusterState,
    resolution: float,
    config: ClusteringConfig,
    sched=None,
    rng: Optional[np.random.Generator] = None,
    initial_frontier: Optional[np.ndarray] = None,
    colors: Optional[np.ndarray] = None,
) -> BestMovesStats:
    """BEST-MOVES scheduled by color classes (Grappolo-style).

    ``colors`` may be precomputed (the multilevel driver recolors each
    coarsened graph).
    """
    if colors is None:
        colors = greedy_coloring(graph, sched=sched)

    def colored_round(order: np.ndarray) -> RoundMoves:
        # One window per color class present, in color order, each class
        # in permutation order; each class is a barrier.
        order = order[np.argsort(colors[order], kind="stable")]
        starts = np.flatnonzero(np.diff(colors[order], prepend=-1))
        return window_round(
            graph, state, resolution, config, order, starts, sched,
            charge_depth=True, swap_avoidance=False,
        )

    return iterate_rounds(
        graph, state, config, "colored", colored_round, sched, rng,
        initial_frontier,
    )
