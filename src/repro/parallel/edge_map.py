"""EDGEMAP: map over the out-edges of a vertex subset (GBBS primitive).

The paper uses EDGEMAP "to maintain the frontier of neighbors of moved
vertices or of modified clusters in each step of BEST-MOVES" (Appendix B).
Given a frontier ``S``, :func:`edge_map` returns the subset of neighbors of
``S`` — in sparse mode by gathering adjacency slices, in dense mode by a
mask pass over all edges — charging the direction-appropriate cost.
"""

from __future__ import annotations

import math

import numpy as np

from repro.parallel.primitives import ragged_gather_indices
from repro.parallel.vertex_subset import VertexSubset, should_densify


def _log2(n: int) -> float:
    return max(1.0, math.log2(max(n, 2)))


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
        if sched is not None:
            sched.charge(work=float(n + m), depth=_log2(n), label=label + "-dense")
        return VertexSubset(n, mask=out_mask)
    # Sparse direction: gather adjacency slices of the frontier.  A
    # process backend (DESIGN.md §13) shards the gather over real cores;
    # the result is the same concatenated-in-CSR-order array.
    backend = getattr(sched, "backend", None)
    if backend is not None:
        nbrs = backend.gather_neighbors(
            graph, ids, instr=getattr(sched, "instr", None)
        )
    else:
        edge_idx, _ = ragged_gather_indices(graph.offsets, ids, lens=degs)
        nbrs = graph.neighbors[edge_idx]
    if sched is not None:
        sched.charge(
            work=float(ids.size + deg_sum), depth=_log2(max(deg_sum, 2)), label=label + "-sparse"
        )
    return VertexSubset.from_ids(n, nbrs, sched=sched)
