"""Best-move computation: kernel dispatch plus the simulated cost model.

For each vertex ``v`` and candidate cluster ``c'``, the gain of residing in
``c'`` is ``S(v, c') - lambda * k_v * K_{c'\\v}`` where ``S(v, c')`` sums
``v``'s edge weights into ``c'`` and ``K_{c'\\v}`` is the cluster weight
excluding ``v`` (Appendix A).  The best move maximizes this over the
clusters of ``v``'s neighbors, staying put, and — when the vertex's home
slot is free — escaping to a fresh singleton (profitable whenever every
reachable cluster has negative gain, which negative rescaled weights make
common).

:func:`compute_batch_moves` evaluates a whole *batch* of vertices against
one state snapshot; it is both the synchronous step (batch = all of V')
and the asynchronous concurrency window (batch ~ worker count).  The
actual evaluation is delegated to a :mod:`repro.kernels` kernel selected
by the ``kernel`` argument (``ClusteringConfig.kernel``): the native C
loop (the default) or the dict-loop reference oracle, which are
bit-identical in outputs (DESIGN.md §8).

This module owns the *cost model*, which is kernel-independent: cost is
charged per the Appendix B kernel split — low-degree vertices use a
sequential scan (depth = degree), high-degree vertices a parallel hash
table (depth = O(log degree), extra table-initialization work) — and is
invoked identically for every kernel, so ``sim_time_seconds`` stays
bit-for-bit comparable across kernel choices.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph
from repro.kernels import DEFAULT_KERNEL, get_kernel
from repro.kernels.reference import accumulate_neighbor_weights
from repro.obs.instrument import M_KERNEL_BATCH
from repro.parallel.hash_table import (
    PARALLEL_INSERT_COST,
    TABLE_SLACK,
    observe_table_metrics,
)


def kernel_depth(degrees: np.ndarray, threshold: int) -> float:
    """Critical-path depth of evaluating these vertices concurrently.

    Low-degree vertices use the sequential scan kernel (depth = degree);
    high-degree vertices the parallel hash table (depth = O(log degree));
    the batch's depth is the worst single-vertex kernel (Appendix B).
    The parallel branch clamps to >= 1: a degree-1 vertex routed to the
    hash-table kernel (possible only with ``threshold < 1``) still pays
    at least one step, not ``2*log2(1) = 0``.
    """
    if degrees.size == 0:
        return 1.0
    par_mask = degrees > threshold
    seq_depth = float(degrees[~par_mask].max()) if (~par_mask).any() else 0.0
    par_depth = (
        max(2.0 * math.log2(float(degrees[par_mask].max())), 1.0)
        if par_mask.any()
        else 0.0
    )
    return max(seq_depth, par_depth, 1.0)


def _charge_batch(
    sched,
    degrees: np.ndarray,
    threshold: int,
    label: str,
    include_depth: bool = True,
) -> None:
    """Charge one batch's best-move cost under the dual-kernel model.

    ``include_depth=False`` charges work only: asynchronous execution has
    no barrier between concurrency windows, so the engine charges a single
    depth term per BEST-MOVES *iteration* instead of per window.
    """
    if sched is None or degrees.size == 0:
        return
    deg_sum = float(degrees.sum())
    par_mask = degrees > threshold
    # ~5 ops per edge scanned (neighbor load, cluster-id load, hash insert,
    # weight accumulate) plus per-vertex gain arithmetic; an EDGEMAP scan
    # by contrast costs ~1 op per edge, which is why frontier maintenance
    # is cheap relative to move computation.
    work = 5.0 * deg_sum + 8.0 * degrees.size
    if par_mask.any():
        par_deg = degrees[par_mask].astype(np.float64)
        work += (PARALLEL_INSERT_COST - 1.0) * float(par_deg.sum())
        work += TABLE_SLACK * float(par_deg.sum())
    depth = kernel_depth(degrees, threshold) if include_depth else 0.0
    sched.charge(work=work, depth=depth, label=label, items=int(degrees.size))
    instr = getattr(sched, "instr", None)
    if instr is not None and instr.enabled:
        observe_table_metrics(instr, degrees, threshold, label=label)


def compute_batch_moves(
    graph: CSRGraph,
    state: ClusterState,
    batch: np.ndarray,
    resolution: float,
    sched=None,
    kernel_threshold: int = 512,
    label: str = "best-moves",
    charge_depth: bool = True,
    allow_escape: bool = True,
    swap_avoidance: bool = False,
    kernel: str = DEFAULT_KERNEL,
) -> Tuple[np.ndarray, np.ndarray]:
    """Desired cluster per batch vertex against the current state snapshot.

    Returns ``(targets, gains)`` aligned with ``batch``: ``targets[i]`` is
    the cluster that maximizes vertex ``batch[i]``'s objective (its current
    cluster when no strict improvement exists) and ``gains[i] >= 0`` is the
    objective improvement (unordered ``F`` scale) of taking that move in
    isolation.  ``kernel`` selects the evaluation kernel; the cost charged
    to ``sched`` is identical for every kernel.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=np.float64)
    instr = getattr(sched, "instr", None)
    backend = getattr(sched, "backend", None)
    if backend is not None:
        # Execution backend (DESIGN.md §13): evaluate the batch on real
        # cores.  Bit-identical to the inline kernel call below, and the
        # cost model afterwards charges exactly the same, so only wall
        # clock differs between backends.
        targets, gains = backend.batch_moves(
            graph,
            state,
            batch,
            resolution,
            allow_escape=allow_escape,
            swap_avoidance=swap_avoidance,
            kernel=kernel,
            instr=instr,
        )
    else:
        targets, gains = get_kernel(kernel).batch_moves(
            graph,
            state,
            batch,
            resolution,
            allow_escape=allow_escape,
            swap_avoidance=swap_avoidance,
            instr=instr,
        )
    if instr is not None and instr.enabled:
        instr.observe(M_KERNEL_BATCH, float(batch.size), kernel=kernel)
    degrees = graph.offsets[batch + 1] - graph.offsets[batch]
    _charge_batch(sched, degrees, kernel_threshold, label, include_depth=charge_depth)
    return targets, gains


def all_move_gains(
    graph: CSRGraph,
    state: ClusterState,
    v: int,
    resolution: float,
) -> dict:
    """Every candidate cluster's gain for vertex ``v`` (debugging API).

    Returns ``{cluster_id: gain}`` over the clusters of ``v``'s neighbors
    plus ``v``'s current cluster (staying) and, when available, the
    escape slot.  Gains are on the unordered ``F`` scale relative to the
    current placement, so ``gains[current] == 0`` and the engine's chosen
    target is the argmax (ties broken toward smaller ids).
    """
    assignments = state.assignments
    acc = accumulate_neighbor_weights(graph, assignments, v)
    current = int(assignments[v])
    k_v = float(graph.node_weights[v])
    cw = state.cluster_weights
    stay = acc.get(current, 0.0) - resolution * k_v * (float(cw[current]) - k_v)
    gains = {current: 0.0}
    for c, s in acc.items():
        if c == current:
            continue
        gains[c] = (s - resolution * k_v * float(cw[c])) - stay
    if state.cluster_sizes[v] == 0:
        gains[v] = 0.0 - stay
    return gains
