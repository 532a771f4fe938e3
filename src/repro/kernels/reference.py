"""The dict-accumulation reference loops (the oracle).

This is the original per-vertex best-move computation: accumulate
``S(v, c')`` into a Python dict over ``v``'s neighbor clusters, then scan
the candidates with an exact-comparison, lowest-cluster-id tiebreak.  It
is deliberately simple — the native kernel is property-tested to match
it bit-for-bit.  The native kernel's ``sweep`` runs
:func:`reference_sweep` for a state it cannot commit in place (a
fault-injected one), and the event-driven engine evaluates its vertices
one at a time with :func:`reference_single_move`.

:func:`accumulate_neighbor_weights` is the single shared accumulation
helper; ``all_move_gains`` (the debugging API in ``repro.core.moves``)
and the single/batch/sweep entry points here all go through it, so the
gain formula lives in exactly one place.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.kernels.base import GAIN_EPS


def accumulate_neighbor_weights(graph, assignments: np.ndarray, v: int) -> dict:
    """``{cluster_id: S(v, cluster)}`` over the clusters of ``v``'s neighbors.

    Accumulation order is ``v``'s CSR adjacency order — the order every
    kernel must sum in for bit-identical floats.
    """
    lo = graph.offsets[v]
    hi = graph.offsets[v + 1]
    nbr_clusters = assignments[graph.neighbors[lo:hi]]
    wts = graph.weights[lo:hi]
    acc: dict = {}
    for c, w in zip(nbr_clusters.tolist(), wts.tolist()):
        acc[c] = acc.get(c, 0.0) + w
    return acc


def reference_single_move(
    graph,
    state,
    v: int,
    resolution: float,
    allow_escape: bool = True,
    swap_avoidance: bool = False,
) -> Tuple[int, float]:
    """Best move for one vertex via dict accumulation.

    Semantically a batch of size one; ties break toward the smallest
    cluster id (exact float comparison); the native loop mirrors it, so
    the two agree bit-for-bit.
    """
    assignments = state.assignments
    acc = accumulate_neighbor_weights(graph, assignments, v)
    current = int(assignments[v])
    k_v = float(graph.node_weights[v])
    cw = state.cluster_weights
    stay = acc.get(current, 0.0) - resolution * k_v * (float(cw[current]) - k_v)
    best_ext_gain = -math.inf
    best_ext_cluster = -1
    own_singleton = state.cluster_sizes[current] == 1
    for c, s in acc.items():
        if c == current:
            continue
        # Swap avoidance for *synchronous* scheduling (Lu et al. [27], as
        # in Grappolo): a singleton may join another singleton only when
        # the target id is smaller than its own, or lockstep rounds swap
        # mutually attracted singleton pairs forever.  Asynchronous and
        # sequential schedules self-heal, so they run pure best moves.
        if (
            swap_avoidance
            and own_singleton
            and c > current
            and state.cluster_sizes[c] == 1
        ):
            continue
        gain = s - resolution * k_v * float(cw[c])
        if gain > best_ext_gain or (gain == best_ext_gain and c < best_ext_cluster):
            best_ext_gain = gain
            best_ext_cluster = c
    best_gain = stay
    best_cluster = current
    if best_ext_cluster >= 0 and best_ext_gain > stay + GAIN_EPS:
        best_gain = best_ext_gain
        best_cluster = best_ext_cluster
    if allow_escape and state.cluster_sizes[v] == 0 and best_gain < -GAIN_EPS:
        best_cluster = v
        best_gain = 0.0
    return best_cluster, best_gain - stay


def reference_batch_moves(
    graph,
    state,
    batch: np.ndarray,
    resolution: float,
    allow_escape: bool = True,
    swap_avoidance: bool = False,
    instr=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch evaluation as a plain loop of single-vertex evaluations.

    Every vertex reads the same snapshot (``state`` is never mutated), so
    this is the semantic definition the native batch kernel must
    reproduce bit-for-bit.
    """
    targets = np.empty(batch.size, dtype=np.int64)
    gains = np.empty(batch.size, dtype=np.float64)
    for i, v in enumerate(batch.tolist()):
        target, gain = reference_single_move(
            graph,
            state,
            v,
            resolution,
            allow_escape=allow_escape,
            swap_avoidance=swap_avoidance,
        )
        targets[i] = target
        gains[i] = gain
    return targets, gains


def reference_sweep(
    graph,
    state,
    order: np.ndarray,
    resolution: float,
    allow_escape: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Vertex-at-a-time sweep with immediate moves (Algorithm 2's loop)."""
    movers: List[int] = []
    origins: List[int] = []
    targets: List[int] = []
    total_gain = 0.0
    for v in order.tolist():
        target, gain = reference_single_move(
            graph, state, v, resolution, allow_escape=allow_escape
        )
        if gain > 0.0:
            origins.append(int(state.assignments[v]))
            state.move_one(v, target)
            movers.append(v)
            targets.append(target)
            total_gain += gain
    return (
        np.asarray(movers, dtype=np.int64),
        np.asarray(origins, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        total_gain,
    )
