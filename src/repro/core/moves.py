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
from typing import List, Optional, Tuple

import numpy as np

from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph
from repro.kernels import DEFAULT_KERNEL, get_kernel, native
from repro.kernels.reference import accumulate_neighbor_weights
from repro.obs.instrument import M_KERNEL_BATCH


#: One window's degree profile: ``(vertices, degree sum, parallel-branch
#: vertices, parallel-branch degree sum, largest sequential-branch degree,
#: largest parallel-branch degree)``; a largest degree is 0 when its
#: branch is empty.
Profile = Tuple[int, int, int, int, int, int]

_ONE_WINDOW = np.zeros(1, dtype=np.int64)


def degree_profile(
    degrees: np.ndarray, threshold: int, starts: Optional[np.ndarray] = None
) -> List[Profile]:
    """The :data:`Profile` of each window of ``degrees``.

    Windows are the consecutive non-empty runs beginning at ``starts``
    (the whole array when ``None``); a round's windows cost one pass
    each of ``np.add.reduceat`` and ``np.maximum.reduceat``.  Vertices
    above ``threshold`` take the parallel hash-table branch (Appendix B).
    Degrees are integers, so every sum is exact.
    """
    if starts is None:
        sizes = [degrees.size]
        starts = _ONE_WINDOW
    else:
        sizes = np.diff(starts, append=degrees.size).tolist()
    sums = np.add.reduceat(degrees, starts).tolist()
    par = degrees > threshold
    if par.any():
        par_degrees = np.where(par, degrees, 0)
        par_counts = np.add.reduceat(par, starts, dtype=np.int64).tolist()
        par_sums = np.add.reduceat(par_degrees, starts).tolist()
        seq_maxima = np.maximum.reduceat(degrees - par_degrees, starts).tolist()
        par_maxima = np.maximum.reduceat(par_degrees, starts).tolist()
    else:
        par_counts = par_sums = par_maxima = [0] * len(sizes)
        seq_maxima = np.maximum.reduceat(degrees, starts).tolist()
    return list(zip(sizes, sums, par_counts, par_sums, seq_maxima, par_maxima))


def profile_depth(profiles: List[Profile]) -> float:
    """Critical-path depth of evaluating the profiled windows' vertices
    concurrently: the worst single-vertex kernel (Appendix B).

    The sequential scan's depth is the degree, the parallel hash table's
    ``2 log2(degree)``, clamped to >= 1: a degree-1 vertex routed to the
    hash-table kernel (possible only with ``threshold < 1``) still pays
    at least one step, not ``2*log2(1) = 0``.
    """
    seq_max = max(p[4] for p in profiles)
    par_depth = (
        max(2.0 * math.log2(float(max(p[5] for p in profiles))), 1.0)
        if any(p[2] for p in profiles)
        else 0.0
    )
    return max(float(seq_max), par_depth, 1.0)


def kernel_depth(degrees: np.ndarray, threshold: int) -> float:
    """Critical-path depth of evaluating these vertices concurrently
    (:func:`profile_depth` of one window; 1 for no vertices)."""
    if degrees.size == 0:
        return 1.0
    return profile_depth(degree_profile(degrees, threshold))


#: Space overhead of the parallel branch's presized open-addressing
#: table, charged as initialization work per unit of degree.
TABLE_SLACK = 1.3

#: Per-insert cost of the parallel branch's concurrent (CAS) table,
#: relative to the sequential scan's 1.
PARALLEL_INSERT_COST = 2.0


def _charge_batch(
    sched, profile: Profile, label: str, include_depth: bool = True
) -> None:
    """Charge one batch's best-move cost under the dual-kernel model.

    ``include_depth=False`` charges work only: asynchronous execution has
    no barrier between concurrency windows, so the engine charges a single
    depth term per BEST-MOVES *iteration* instead of per window.
    """
    size, deg_sum, par_count, par_sum, _, _ = profile
    # ~5 ops per edge scanned (neighbor load, cluster-id load, hash insert,
    # weight accumulate) plus per-vertex gain arithmetic; an EDGEMAP scan
    # by contrast costs ~1 op per edge, which is why frontier maintenance
    # is cheap relative to move computation.
    work = 5.0 * float(deg_sum) + 8.0 * size
    if par_count:
        work += (PARALLEL_INSERT_COST - 1.0) * float(par_sum)
        work += TABLE_SLACK * float(par_sum)
    depth = profile_depth([profile]) if include_depth else 0.0
    sched.charge(work=work, depth=depth, label=label, items=size)


def kernel_threads(state: ClusterState, sched=None) -> int:
    """Wall-clock threads a round's kernel windows may use.

    One per usable core (:func:`repro.kernels.native.usable_cores`),
    except under fault injection (``sched.faults``) and for a state
    other than an exact :class:`ClusterState` (a ``FaultyClusterState``),
    which keep the single-thread path.  Results never depend on it.
    """
    if getattr(sched, "faults", None) is not None or type(state) is not ClusterState:
        return 1
    return native.usable_cores()


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
    profile: Optional[Profile] = None,
    threads: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Desired cluster per batch vertex against the current state snapshot.

    Returns ``(targets, gains)`` aligned with ``batch``: ``targets[i]`` is
    the cluster that maximizes vertex ``batch[i]``'s objective (its current
    cluster when no strict improvement exists) and ``gains[i] >= 0`` is the
    objective improvement (unordered ``F`` scale) of taking that move in
    isolation.  ``kernel`` selects the evaluation kernel; the cost charged
    to ``sched`` is identical for every kernel.  ``profile`` is the
    batch's :func:`degree_profile` when the caller already has it (a
    round profiles all its windows at once).  ``threads`` is how many
    wall-clock threads the kernel may split the batch across
    (:func:`kernel_threads`); the outputs and the charge never depend
    on it.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=np.float64)
    instr = getattr(sched, "instr", None)
    targets, gains = get_kernel(kernel).batch_moves(
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
        instr.observe(M_KERNEL_BATCH, float(batch.size), kernel=kernel)
    if sched is None:
        return targets, gains
    if profile is None:
        degrees = graph.offsets[batch + 1] - graph.offsets[batch]
        profile = degree_profile(degrees, kernel_threshold)[0]
    _charge_batch(sched, profile, label, include_depth=charge_depth)
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
