"""The "more faithful" prefix parallelization the paper describes (§3.2).

    "A more faithful parallelization would fix a random permutation of V,
    and move in parallel the first l vertices in order for the largest l
    such that moving these l vertices would not affect each other's
    objectives.  However, ... not only does this involve greater overhead
    due to the prefix computation of vertices that do not conflict, but it
    also respects sequential dependencies that may not affect later vertex
    moves."

This module implements that alternative so the trade-off can be measured
(see ``benchmarks/bench_ablation_prefix.py``): per round, take the longest
prefix of the permutation that is pairwise non-conflicting, move it as one
window, and charge the prefix computation.

Two vertices *conflict* when moving both could change the other's gain:
they are adjacent, or share a current cluster, or one's destination is
the other's current or destination cluster.  The conservative test below
(disjoint {current, target} cluster sets and no adjacency into a mover)
guarantees the parallel application equals applying the prefix moves
sequentially in permutation order — property-tested.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.best_moves import BestMovesStats, RoundMoves, iterate_rounds
from repro.core.config import ClusteringConfig
from repro.core.moves import compute_batch_moves, kernel_threads
from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph


def conflict_free_prefix(
    graph: CSRGraph,
    state: ClusterState,
    order: np.ndarray,
    targets: np.ndarray,
) -> int:
    """Length of the longest non-conflicting prefix of ``order``.

    ``targets[i]`` is vertex ``order[i]``'s desired cluster (computed
    against the current state).  Vertices that do not move never conflict.
    """
    n = graph.num_vertices
    touched_clusters = np.zeros(n, dtype=bool)
    mover_vertices = np.zeros(n, dtype=bool)
    length = 0
    for i in range(order.size):
        v = int(order[i])
        target = int(targets[i])
        current = int(state.assignments[v])
        if target == current:
            length += 1
            continue
        # Cluster-level conflicts: someone in the prefix already touches
        # our source or destination cluster.
        if touched_clusters[current] or touched_clusters[target]:
            break
        # Adjacency conflicts: v neighbors an earlier mover (its gain was
        # computed against that mover's pre-move position).
        nbrs = graph.neighbors[graph.offsets[v]: graph.offsets[v + 1]]
        if mover_vertices[nbrs].any():
            break
        touched_clusters[current] = True
        touched_clusters[target] = True
        mover_vertices[v] = True
        length += 1
    return max(length, 1)  # always make progress


def run_prefix_best_moves(
    graph: CSRGraph,
    state: ClusterState,
    resolution: float,
    config: ClusteringConfig,
    sched=None,
    rng: Optional[np.random.Generator] = None,
    initial_frontier: Optional[np.ndarray] = None,
) -> BestMovesStats:
    """BEST-MOVES with prefix-faithful scheduling.

    Each iteration fixes one random permutation of the frontier and
    consumes it prefix-by-prefix: desired clusters are recomputed for the
    remaining vertices, the longest conflict-free prefix moves in
    parallel, and the process repeats until the permutation is exhausted.
    The result is equivalent to the sequential schedule over the same
    permutation, at the cost of the prefix computations — exactly the
    overhead the paper cites for rejecting this design.
    """

    threads = kernel_threads(state, sched)

    def prefix_round(order: np.ndarray) -> RoundMoves:
        # The prefixes partition ``order``, so each vertex's origin (read
        # before its prefix commits) and target land in round-sized arrays.
        origins = np.empty(order.size, dtype=np.int64)
        targets = np.empty(order.size, dtype=np.int64)
        gain = 0.0
        position = 0
        while position < order.size:
            # Bounded lookahead: prefixes are short in practice, so only
            # the head of the remaining permutation needs desired-cluster
            # recomputation each round.
            remaining = order[position: position + 4096]
            remaining_targets, gains = compute_batch_moves(
                graph,
                state,
                remaining,
                resolution,
                sched=sched,
                kernel_threshold=config.kernel_threshold,
                charge_depth=False,
                allow_escape=config.escape_moves,
                kernel=config.kernel,
                threads=threads,
            )
            length = conflict_free_prefix(
                graph, state, remaining, remaining_targets
            )
            end = position + length
            window = remaining[:length]
            window_targets = remaining_targets[:length]
            origins[position:end] = state.assignments[window]
            targets[position:end] = window_targets
            moving = window_targets != origins[position:end]
            if moving.any():
                gain += float(gains[:length][moving].sum())
            state.apply_moves(window, window_targets, sched=sched)
            if sched is not None:
                # The prefix scan itself: a parallel max-prefix over the
                # remaining vertices (work linear in the scanned region,
                # depth logarithmic) — the overhead the paper highlights.
                sched.charge(
                    work=float(remaining.size),
                    depth=np.log2(max(remaining.size, 2)) * 2.0,
                    label="prefix-scan",
                )
            position = end
        moving = targets != origins
        return order[moving], origins[moving], targets[moving], gain

    return iterate_rounds(
        graph, state, config, "prefix", prefix_round, sched, rng,
        initial_frontier,
    )
