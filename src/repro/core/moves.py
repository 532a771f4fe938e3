"""Best-move computation: the kernel call plus the simulated cost model.

For each vertex ``v`` and candidate cluster ``c'``, the gain of residing in
``c'`` is ``S(v, c') - lambda * k_v * K_{c'\\v}`` where ``S(v, c')`` sums
``v``'s edge weights into ``c'`` and ``K_{c'\\v}`` is the cluster weight
excluding ``v`` (Appendix A).  The best move maximizes this over the
clusters of ``v``'s neighbors, staying put, and — when the vertex's home
slot is free — escaping to a fresh singleton (profitable whenever every
reachable cluster has negative gain, which negative rescaled weights make
common).

:func:`compute_batch_moves` evaluates a whole *batch* of vertices against
one state snapshot: a window of the per-window reference loop, or a
prefix engine lookahead.  A default round evaluates its windows inside
one C call instead (``native.KERNEL.round``) and charges them with
:func:`batch_costs`.  The actual evaluation is the native kernel's
(:data:`repro.kernels.native.KERNEL`), bit-identical in outputs to the
dict-loop reference oracle (DESIGN.md §8).

This module owns the *cost model*, which never sees which loop ran:
cost is charged per the Appendix B kernel split — low-degree vertices
use a sequential scan (depth = degree), high-degree vertices a parallel
hash table (depth = O(log degree), extra table-initialization work) —
so ``sim_time_seconds`` is the same for the C loops and the reference
loops.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph
from repro.kernels import native
from repro.kernels.reference import accumulate_neighbor_weights
from repro.obs.instrument import M_KERNEL_BATCH


#: One window's degree profile: ``(vertices, degree sum, parallel-branch
#: vertices, parallel-branch degree sum, largest sequential-branch degree,
#: largest parallel-branch degree)``; a largest degree is 0 when its
#: branch is empty.  A round's profiles are the rows of one int64 array
#: (:func:`window_profiles`).
Profile = Tuple[int, int, int, int, int, int]

_ONE_WINDOW = np.zeros(1, dtype=np.int64)


def window_profiles(
    degrees: np.ndarray, threshold: int, starts: Optional[np.ndarray] = None
) -> np.ndarray:
    """The :data:`Profile` of each window of ``degrees``, one row each.

    Windows are the consecutive non-empty runs beginning at ``starts``
    (the whole array when ``None``); a round's windows cost one pass
    each of ``np.add.reduceat`` and ``np.maximum.reduceat``.  Vertices
    above ``threshold`` take the parallel hash-table branch (Appendix B).
    Degrees are integers, so every sum is exact.
    """
    if starts is None:
        starts = _ONE_WINDOW
    profiles = np.zeros((starts.size, 6), dtype=np.int64)
    profiles[:, 0] = np.diff(starts, append=degrees.size)
    profiles[:, 1] = np.add.reduceat(degrees, starts)
    par = degrees > threshold
    if par.any():
        par_degrees = np.where(par, degrees, 0)
        profiles[:, 2] = np.add.reduceat(par, starts, dtype=np.int64)
        profiles[:, 3] = np.add.reduceat(par_degrees, starts)
        profiles[:, 4] = np.maximum.reduceat(degrees - par_degrees, starts)
        profiles[:, 5] = np.maximum.reduceat(par_degrees, starts)
    else:
        profiles[:, 4] = np.maximum.reduceat(degrees, starts)
    return profiles


def worst_depth(seq_max: int, par_count: int, par_max: int) -> float:
    """Critical-path depth of evaluating vertices concurrently: the worst
    single-vertex kernel (Appendix B), given the largest degree of each
    branch and how many vertices took the parallel one.

    The sequential scan's depth is the degree, the parallel hash table's
    ``2 log2(degree)``, clamped to >= 1: a degree-1 vertex routed to the
    hash-table kernel (possible only with ``threshold < 1``) still pays
    at least one step, not ``2*log2(1) = 0``.
    """
    par_depth = max(2.0 * math.log2(float(par_max)), 1.0) if par_count else 0.0
    return max(float(seq_max), par_depth, 1.0)


def profile_depth(profiles) -> float:
    """:func:`worst_depth` over the profiled windows together (rows of
    :func:`window_profiles`)."""
    profiles = np.asarray(profiles, dtype=np.int64)
    return worst_depth(
        profiles[:, 4].max(), profiles[:, 2].any(), profiles[:, 5].max()
    )


def kernel_depth(degrees: np.ndarray, threshold: int) -> float:
    """Critical-path depth of evaluating these vertices concurrently
    (:func:`profile_depth` of one window; 1 for no vertices)."""
    if degrees.size == 0:
        return 1.0
    return profile_depth(window_profiles(degrees, threshold))


#: Space overhead of the parallel branch's presized open-addressing
#: table, charged as initialization work per unit of degree.
TABLE_SLACK = 1.3

#: Per-insert cost of the parallel branch's concurrent (CAS) table,
#: relative to the sequential scan's 1.
PARALLEL_INSERT_COST = 2.0


def batch_costs(
    profiles: np.ndarray, include_depth
) -> Tuple[np.ndarray, np.ndarray]:
    """Each profiled window's best-move ``(work, depth)`` under the
    dual-kernel model, as float64 columns (``profiles`` holds one
    :data:`Profile` per row).

    A window charges depth only where ``include_depth`` (a bool, or one
    per window) is true: asynchronous execution has no barrier between
    concurrency windows, so the engine charges a single depth term per
    BEST-MOVES *iteration* instead of per window.
    """
    sizes, sums, par_counts, par_sums, seq_maxima, par_maxima = profiles.T
    # ~5 ops per edge scanned (neighbor load, cluster-id load, hash insert,
    # weight accumulate) plus per-vertex gain arithmetic; an EDGEMAP scan
    # by contrast costs ~1 op per edge, which is why frontier maintenance
    # is cheap relative to move computation.
    work = 5.0 * sums + 8.0 * sizes
    depth = np.zeros(sizes.size)
    parallel = np.flatnonzero(par_counts).tolist()
    if parallel:
        # The parallel branch's terms, one after the other; they are 0
        # for a window without it, and adding 0.0 to the positive work
        # changes no bit.
        work += (PARALLEL_INSERT_COST - 1.0) * par_sums
        work += TABLE_SLACK * par_sums
    if np.any(include_depth):
        depth = np.maximum(seq_maxima, 1).astype(np.float64)
        for i in parallel:
            depth[i] = worst_depth(seq_maxima[i], 1, par_maxima[i])
        depth = np.where(include_depth, depth, 0.0)
    return work, depth


def fault_free(state: ClusterState, sched=None) -> bool:
    """Whether a round may run its windows on the fast paths: no fault
    plan on ``sched`` (``sched.faults``) and an exact :class:`ClusterState`
    (not a ``FaultyClusterState``).  Fault runs keep one kernel thread
    (:func:`kernel_threads`) and the per-window loop of
    :func:`repro.core.best_moves.window_round`."""
    return getattr(sched, "faults", None) is None and type(state) is ClusterState


def kernel_threads(state: ClusterState, sched=None) -> int:
    """Wall-clock threads a round's kernel windows may use.

    One per usable core (:func:`repro.kernels.native.usable_cores`),
    except where :func:`fault_free` is false, which keeps the
    single-thread path.  Results never depend on it.
    """
    return native.usable_cores() if fault_free(state, sched) else 1


def compute_batch_moves(
    graph: CSRGraph,
    state: ClusterState,
    batch: np.ndarray,
    resolution: float,
    sched=None,
    kernel_threshold: int = 512,
    charge_depth: bool = True,
    allow_escape: bool = True,
    swap_avoidance: bool = False,
    profile: Optional[Profile] = None,
    threads: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Desired cluster per batch vertex against the current state snapshot.

    Returns ``(targets, gains)`` aligned with ``batch``: ``targets[i]`` is
    the cluster that maximizes vertex ``batch[i]``'s objective (its current
    cluster when no strict improvement exists) and ``gains[i] >= 0`` is the
    objective improvement (unordered ``F`` scale) of taking that move in
    isolation.  ``profile`` is the
    batch's :data:`Profile` when the caller already has it (a
    round profiles all its windows at once).  ``threads`` is how many
    wall-clock threads the kernel may split the batch across
    (:func:`kernel_threads`); the outputs and the charge never depend
    on it.  With ``sched`` the batch is charged as one ``best-moves``
    region (:func:`batch_costs`).
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=np.float64)
    instr = getattr(sched, "instr", None)
    targets, gains = native.KERNEL.batch_moves(
        graph,
        state,
        batch,
        resolution,
        allow_escape=allow_escape,
        swap_avoidance=swap_avoidance,
        instr=instr,
        threads=threads,
    )
    if instr is not None and instr.enabled:
        instr.observe(M_KERNEL_BATCH, float(batch.size))
    if sched is None:
        return targets, gains
    if profile is None:
        degrees = graph.offsets[batch + 1] - graph.offsets[batch]
        profile = window_profiles(degrees, kernel_threshold)[0].tolist()
    work, depth = batch_costs(np.array([profile], dtype=np.int64), charge_depth)
    sched.charge(work=float(work[0]), depth=float(depth[0]), label="best-moves")
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
