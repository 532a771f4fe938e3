"""EDGEMAP: map over the out-edges of a vertex subset (GBBS primitive).

The paper uses EDGEMAP "to maintain the frontier of neighbors of moved
vertices or of modified clusters in each step of BEST-MOVES" (Appendix B).
Given a frontier ``S``, :func:`edge_map` returns the subset of neighbors of
``S``, charging the cost of the direction the Ligra rule picks: sparse
(gather adjacency slices) or dense (a mask pass over all edges).

The neighbor set comes from one C bitmap gather whatever the direction
(:func:`repro.kernels.native.neighbors`); the direction decides only
the charge.
"""

from __future__ import annotations

from repro.kernels import native
from repro.parallel.primitives import log2_depth
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
    nbrs, deg_sum = native.neighbors(graph, ids)
    dense = should_densify(ids.size, deg_sum, m)
    _charge(sched, dense, n, m, ids.size, deg_sum, label)
    if not dense:
        observe_dedup(sched, deg_sum, nbrs.size)
    return VertexSubset(n, ids=nbrs)


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
