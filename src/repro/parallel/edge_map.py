"""EDGEMAP: map over the out-edges of a vertex subset (GBBS primitive).

The paper uses EDGEMAP "to maintain the frontier of neighbors of moved
vertices or of modified clusters in each step of BEST-MOVES" (Appendix B).
Given a frontier ``S``, :func:`edge_map` returns the subset of neighbors of
``S``, charging the cost of the direction the Ligra rule picks: sparse
(gather adjacency slices) or dense (a mask pass over all edges).

When the native library loads, the neighbor set comes from one C
bitmap gather whatever the direction
(:func:`repro.kernels.native.neighbors`); the two NumPy directions below
are the no-compiler path.  All three give the same sorted ids.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import native
from repro.parallel.primitives import log2_depth, ragged_gather_indices
from repro.parallel.vertex_subset import VertexSubset, observe_dedup, should_densify


def edge_map(graph, frontier: VertexSubset, sched=None, label: str = "edge-map") -> VertexSubset:
    """Neighbors of ``frontier`` in ``graph`` as a new :class:`VertexSubset`.

    ``graph`` must expose CSR fields ``offsets``/``neighbors`` and
    ``num_vertices``/``num_directed_edges`` (see
    :class:`repro.graphs.csr.CSRGraph`).  Representation (sparse gather vs
    dense scan) follows the Ligra switching rule; cost charges differ
    accordingly:

    * sparse: work O(|S| + sum of deg(S)), depth O(log n);
    * dense:  work O(n + m), depth O(log n).
    """
    n = graph.num_vertices
    m = graph.num_directed_edges
    ids = frontier.ids()
    if ids.size == 0:
        return VertexSubset.empty(n)
    found = native.neighbors(graph, ids)
    if found is not None:
        nbrs, deg_sum = found
        dense = should_densify(ids.size, deg_sum, m)
        _charge(sched, dense, n, m, ids.size, deg_sum, label)
        if not dense:
            observe_dedup(sched, deg_sum, nbrs.size)
        return VertexSubset(n, ids=nbrs)
    degs = graph.offsets[ids + 1] - graph.offsets[ids]
    deg_sum = int(degs.sum())
    dense = should_densify(ids.size, deg_sum, m)
    if dense:
        mask = frontier.mask()
        # A vertex is in the output iff one of its neighbors is in S; scan
        # all edges once (dense direction reads in-edges, which equals
        # out-edges for our symmetric graphs).
        hit = mask[graph.neighbors]
        out_mask = np.zeros(n, dtype=bool)
        src = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(graph.offsets).astype(np.int64)
        )
        out_mask[src[hit]] = True
        _charge(sched, dense, n, m, ids.size, deg_sum, label)
        return VertexSubset(n, mask=out_mask)
    # Sparse direction: gather adjacency slices of the frontier; the
    # result is the same concatenated-in-CSR-order array either way.
    edge_idx, _ = ragged_gather_indices(graph.offsets, ids, lens=degs)
    nbrs = graph.neighbors[edge_idx]
    _charge(sched, dense, n, m, ids.size, deg_sum, label)
    return VertexSubset.from_ids(n, nbrs, sched=sched)


def _charge(
    sched, dense: bool, n: int, m: int, frontier_size: int, deg_sum: int, label: str
) -> None:
    """Charge the direction's cost: dense O(n + m), sparse O(|S| + deg(S))."""
    if sched is None:
        return
    if dense:
        sched.charge(work=float(n + m), depth=log2_depth(n), label=label + "-dense")
    else:
        sched.charge(
            work=float(frontier_size + deg_sum),
            depth=log2_depth(max(deg_sum, 2)),
            label=label + "-sparse",
        )
