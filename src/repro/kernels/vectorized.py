"""Segment-reduction batch kernel: every ``S(v, c')`` in one sorted pass.

The batch's CSR slices are expanded to flat ``(vertex, neighbor_cluster,
weight)`` triples via :func:`~repro.parallel.primitives.
ragged_gather_indices`.  Each flat entry gets a *unique* packed key
``((row*n + cluster) << p) | position`` (``p`` bits hold the entry's
flat position), one in-place value sort orders the keys, and one segment
reduction over the weights in that order produces every per-(vertex,
cluster) sum at once — the semisort-style aggregation the paper uses for
compression (Appendix B), applied to move evaluation.  The per-vertex
argmax (with the stay-put / fresh-singleton candidates and the
``GAIN_EPS`` strict-improvement guard) is then a handful of segment
reductions: Python-level work is O(1) calls regardless of batch size.

Bit-identity with the dict oracle is by construction:

* unique keys have exactly one sorted order, and the position bits break
  (row, cluster) ties in gather order, so NumPy's (SIMD, unstable)
  quicksort returns precisely the stable permutation: ``key & mask`` is
  the permutation and ``key >> p`` the sorted (row, cluster) key.  Each
  (vertex, cluster) segment therefore stays in CSR adjacency order, and
  the segment reduction preserves the dict accumulation's addition
  semantics: integer-valued weights (exact under any order) use
  ``add.reduceat``, fractional weights use a ``bincount`` scatter-add
  that sums each bucket strictly left-to-right;
* a batch whose keys would need more than ``KEY_BITS`` bits is sorted
  in row-contiguous chunks that fit (halving by rows); rows are
  independent against one snapshot, and chunks keep the row order, so
  the concatenated segments are exactly the unchunked ones;
* the argmax takes, per vertex, the first segment (= lowest cluster id,
  segments being cluster-sorted) whose gain equals the exact segment
  maximum — the oracle's lowest-id tiebreak; own-cluster and
  swap-blocked segments score ``-inf`` so they can never win;
* IEEE addition is commutative, so assembling ``stay`` as
  ``-λ·k·(K-k) + S_own`` here and ``S_own - λ·k·(K-k)`` there is the
  same float.

Tiny batches (asynchronous concurrency windows degenerate to a few
vertices) are dominated by NumPy per-call overhead, so below
``SMALL_BATCH_WORK`` scanned edges the kernel falls back to the dict
loop — legal precisely because the two paths are bit-identical; the
fallback is counted under ``repro_kernel_fallbacks_total``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.base import GAIN_EPS, MoveKernel
from repro.kernels.reference import reference_batch_moves, reference_single_move
from repro.kernels.sweep import speculative_sweep
from repro.obs.instrument import M_KERNEL_FALLBACK, M_KERNEL_SEGMENTS
from repro.parallel.primitives import ragged_gather_indices

#: Below this many scanned entries (batch edges + vertices) the dict loop
#: beats the ~40 fixed NumPy calls of the segment path (measured on the
#: PR3 RMAT workload, where async windows are ~8 vertices of degree ~11).
SMALL_BATCH_WORK = 192

#: Bits a packed sort key may use: an int64 without its sign bit.
KEY_BITS = 63


class _KernelScratch:
    """Per-process pool of flat work arrays, grown to the largest batch.

    The segment path's O(deg_sum) intermediates (gathered values, packed
    keys, sorted copies) used to be reallocated on every call; across a
    run that is thousands of multi-megabyte allocations for buffers whose
    size only ever tracks the current batch.  Buffers here grow to the
    next power of two past the largest request and are then reused for
    the life of the process — which makes them shard-local for free under
    the process execution backend (each OS worker holds its own pool,
    sized to its shard).  Views handed out are valid only until the next
    request under the same name; nothing returned by the kernel may alias
    the pool.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        """An uninitialised length-``size`` view of the named buffer."""
        dtype = np.dtype(dtype)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            cap = 1 << max(int(max(size, 1) - 1).bit_length(), 6)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[name] = buf
        return buf[:size]

    def iota(self, size: int) -> np.ndarray:
        """``arange(size)`` served from the pool (values never change)."""
        buf = self._bufs.get("iota")
        if buf is None or buf.size < size:
            cap = 1 << max(int(max(size, 1) - 1).bit_length(), 6)
            buf = np.arange(cap, dtype=np.int64)
            self._bufs["iota"] = buf
        return buf[:size]


#: The process-wide pool (one per OS process; no threads share it).
_SCRATCH = _KernelScratch()


def _key_bits(rows: int, edges: int, n: int) -> int:
    """Bits of a packed ``((row*n + cluster) << p) | position`` key."""
    return (rows * n - 1).bit_length() + (edges - 1).bit_length()


def _row_chunks(degrees: np.ndarray, deg_sum: int, n: int):
    """Row-contiguous ``(r0, e0, e1)`` slices whose packed keys fit ``KEY_BITS``.

    Rows are independent against one snapshot, so a batch too wide for
    one key is halved by rows until every piece fits; rows without edges
    produce no segments and pieces holding only such rows are dropped.
    """
    if _key_bits(degrees.size, deg_sum, n) <= KEY_BITS:
        return [(0, 0, deg_sum)]
    bounds = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=bounds[1:])
    chunks = []
    pending = [(0, degrees.size)]
    while pending:
        r0, r1 = pending.pop()
        e0, e1 = int(bounds[r0]), int(bounds[r1])
        if e0 == e1:
            continue
        if _key_bits(r1 - r0, e1 - e0, n) <= KEY_BITS:
            chunks.append((r0, e0, e1))
        elif r1 - r0 == 1:
            raise ValueError(
                f"a degree-{e1 - e0} row over {n} clusters needs more than "
                f"{KEY_BITS} key bits"
            )
        else:
            mid = (r0 + r1) // 2
            pending.append((mid, r1))
            pending.append((r0, mid))
    return chunks


def _segment_sums(row, clusters, weights, r0: int, n: int, integer_weights: bool):
    """``(seg_row, seg_cluster, seg_sum)`` of one row-contiguous gather slice.

    ``r0`` is the slice's first row; keys count rows from it, so a chunk
    needs only its own row range's bits.  Segments come out ordered by
    (row, cluster), summed in CSR order (module docstring).
    """
    total = row.size
    shift = (total - 1).bit_length()
    key = _SCRATCH.get("key", total, np.int64)
    np.multiply(row - r0 if r0 else row, np.int64(n), out=key)
    np.add(key, clusters, out=key)
    np.left_shift(key, shift, out=key)
    np.bitwise_or(key, _SCRATCH.iota(total), out=key)
    key.sort()
    order = _SCRATCH.get("order", total, np.int64)
    np.bitwise_and(key, np.int64((1 << shift) - 1), out=order)
    np.right_shift(key, shift, out=key)
    sorted_w = _SCRATCH.get("sorted_weights", total, weights.dtype)
    np.take(weights, order, out=sorted_w)
    boundary = _SCRATCH.get("boundary", total, bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    seg_start = np.flatnonzero(boundary)
    # reduceat's reduce loop uses SIMD partial accumulators, which
    # reorders float addition within a segment (1-ULP drift against the
    # dict oracle on fractional weights).  Integer-valued weights sum
    # exactly under any order, so they take the faster reduceat;
    # everything else goes through bincount — a plain sequential
    # scatter-add, accumulating each segment strictly left-to-right in CSR
    # adjacency order, the dict oracle's exact addition order.
    if integer_weights:
        sums = np.add.reduceat(sorted_w, seg_start)
    else:
        seg_id = _SCRATCH.get("seg_id", total, np.int64)
        np.cumsum(boundary, out=seg_id)
        np.subtract(seg_id, 1, out=seg_id)
        sums = np.bincount(seg_id, weights=sorted_w, minlength=seg_start.size)
    # The sort only permutes entries within a row, so the gathered row
    # array already holds each sorted position's row.
    return row[seg_start], clusters[order[seg_start]], sums


def vectorized_batch_moves(
    graph,
    state,
    batch: np.ndarray,
    resolution: float,
    allow_escape: bool = True,
    swap_avoidance: bool = False,
    instr=None,
    small_batch_work: int = SMALL_BATCH_WORK,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(targets, gains)`` for ``batch`` via one-sort segment reduction."""
    n = graph.num_vertices
    assignments = state.assignments
    cluster_weights = state.cluster_weights

    degrees = graph.offsets[batch + 1] - graph.offsets[batch]
    deg_sum = int(degrees.sum())
    if deg_sum + batch.size < small_batch_work:
        if instr is not None and instr.enabled:
            instr.count(M_KERNEL_FALLBACK, 1.0, site="batch")
        return reference_batch_moves(
            graph,
            state,
            batch,
            resolution,
            allow_escape=allow_escape,
            swap_avoidance=swap_avoidance,
            instr=instr,
        )

    k_batch = graph.node_weights[batch]
    current = assignments[batch]
    stay_gain = -resolution * k_batch * (cluster_weights[current] - k_batch)
    targets = current.copy()

    if deg_sum:
        edge_idx, row = ragged_gather_indices(
            graph.offsets, batch, lens=degrees
        )
        nbrs = _SCRATCH.get("nbrs", deg_sum, graph.neighbors.dtype)
        np.take(graph.neighbors, edge_idx, out=nbrs)
        nbr_clusters = _SCRATCH.get("clusters", deg_sum, assignments.dtype)
        np.take(assignments, nbrs, out=nbr_clusters)
        edge_w = _SCRATCH.get("weights", deg_sum, graph.weights.dtype)
        np.take(graph.weights, edge_idx, out=edge_w)
        parts = [
            _segment_sums(
                row[e0:e1], nbr_clusters[e0:e1], edge_w[e0:e1], r0, n,
                graph.has_integer_weights,
            )
            for r0, e0, e1 in _row_chunks(degrees, deg_sum, n)
        ]
        if len(parts) == 1:
            seg_row, seg_cluster, sums = parts[0]
        else:
            seg_row, seg_cluster, sums = (np.concatenate(p) for p in zip(*parts))
        if instr is not None and instr.enabled:
            instr.observe(M_KERNEL_SEGMENTS, float(seg_row.size))

        # Segments arrive grouped by row: per-row values expand to the
        # segments by repeat, which beats a gather on long rows.
        row_start = np.empty(seg_row.size, dtype=bool)
        row_start[0] = True
        np.not_equal(seg_row[1:], seg_row[:-1], out=row_start[1:])
        row_first = np.flatnonzero(row_start)
        row_len = np.empty_like(row_first)
        np.subtract(row_first[1:], row_first[:-1], out=row_len[:-1])
        row_len[-1] = seg_row.size - row_first[-1]
        rows = seg_row[row_first]
        seg_current = np.repeat(current[rows], row_len)
        own = np.flatnonzero(seg_cluster == seg_current)
        # At most one "own cluster" segment per row: direct scatter.
        stay_gain[seg_row[own]] += sums[own]
        best_gain = stay_gain.copy()
        # Score every segment; the own cluster is the stay option, not a
        # move, so it drops out of the argmax at -inf.
        scale = resolution * k_batch[rows]
        gain = sums - np.repeat(scale, row_len) * cluster_weights[seg_cluster]
        gain[own] = -np.inf
        if swap_avoidance:
            # Swap-avoidance heuristic for *synchronous* scheduling (Lu et
            # al. [27], used by Grappolo): a singleton vertex may merge
            # into another singleton cluster only when the target id is
            # smaller than its own — otherwise lockstep rounds swap
            # mutually-attracted singleton pairs forever and synchronous
            # runs never converge.  Asynchronous and sequential schedules
            # self-heal (the second vertex of a pair sees the first's
            # move), so they run pure best moves.
            sizes = state.cluster_sizes
            blocked = (
                (sizes[seg_current] == 1)
                & (sizes[seg_cluster] == 1)
                & (seg_cluster > seg_current)
            )
            gain[blocked] = -np.inf
        # Per-row argmax without a second sort: segments arrive sorted by
        # (row, cluster), so the row maximum comes from one reduceat and
        # the winner is the first (= lowest cluster id) segment matching
        # it exactly — the oracle's tiebreak.  A row whose segments are
        # all -inf "wins" at -inf and fails the improvement test below.
        row_max = np.maximum.reduceat(gain, row_first)
        hit = np.flatnonzero(gain == np.repeat(row_max, row_len))
        rows_of_hit = seg_row[hit]
        keep = np.empty(hit.size, dtype=bool)
        keep[0] = True
        np.not_equal(rows_of_hit[1:], rows_of_hit[:-1], out=keep[1:])
        sel = hit[keep]
        rows_present = rows_of_hit[keep]
        chosen_gain = gain[sel]
        improved = chosen_gain > stay_gain[rows_present] + GAIN_EPS
        winners = rows_present[improved]
        targets[winners] = seg_cluster[sel[improved]]
        best_gain[winners] = chosen_gain[improved]
    else:
        best_gain = stay_gain.copy()

    # Escape to the vertex's home slot when it sits empty and every other
    # option (including staying) loses to isolation (gain 0).
    if allow_escape:
        escape = (state.cluster_sizes[batch] == 0) & (best_gain < -GAIN_EPS)
        if escape.any():
            targets[escape] = batch[escape]
            best_gain[escape] = 0.0

    return targets, best_gain - stay_gain


class VectorizedKernel(MoveKernel):
    """Segment-reduction fast path with dict fallback for tiny batches."""

    name = "vectorized"

    def batch_moves(
        self,
        graph,
        state,
        batch,
        resolution,
        *,
        allow_escape=True,
        swap_avoidance=False,
        instr=None,
    ):
        return vectorized_batch_moves(
            graph,
            state,
            batch,
            resolution,
            allow_escape=allow_escape,
            swap_avoidance=swap_avoidance,
            instr=instr,
        )

    def single_move(
        self, graph, state, v, resolution, *, allow_escape=True, swap_avoidance=False
    ):
        # A batch of one IS a dict: the event-driven oracle commits one
        # vertex at a time, and the measured dirty-tracking variant cost
        # more in invalidation checks than the dict evaluation it avoided
        # (DESIGN.md §8), so every kernel shares the reference single path.
        return reference_single_move(
            graph,
            state,
            v,
            resolution,
            allow_escape=allow_escape,
            swap_avoidance=swap_avoidance,
        )

    def sweep(
        self, graph, state, order, resolution, *, allow_escape=True, instr=None
    ):
        return speculative_sweep(
            graph, state, order, resolution, allow_escape=allow_escape, instr=instr
        )
