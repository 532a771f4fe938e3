"""The LambdaCC objective and its modularity specialization (Section 2).

Definitions (paper Section 2): with resolution ``lambda`` and vertex
weights ``k``, the rescaled weight of a pair is ``w'_uv = w_uv - lambda
k_u k_v`` for edges, ``-lambda k_u k_v`` for non-edges, ``0`` on the
diagonal, and the objective is ``CC(x) = sum over ordered pairs (i, j) of
w'_ij (1 - x_ij)``.

We compute the *unordered* form

    F(C) = sum_{intra edges u<v} w_uv + sum_v self_loop(v)
           - lambda * sum_clusters (K_c^2 - K2_c) / 2

where ``K_c`` sums ``node_weights`` and ``K2_c`` sums ``node_weight_sq``
over the cluster.  Because ``node_weight_sq`` carries the squared weights
of the *original* vertices a compressed vertex absorbed, ``F`` is exactly
invariant under compression — the invariant the multi-level algorithm
relies on.  The paper's ordered objective is ``2 F``.

Modularity: with ``k_v = d_v`` (weighted degree) and ``lambda = gamma /
(2 m_w)``, Reichardt–Bornholdt modularity equals ``CC / (2 m_w) = F / m_w``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.csr import CSRGraph


def intra_cluster_edge_weight(graph: CSRGraph, assignments: np.ndarray) -> float:
    """Total weight of intra-cluster edges, including self-loops."""
    assignments = np.asarray(assignments)
    total = float(graph.self_loops.sum())
    if graph.num_directed_edges:
        src = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.offsets)
        )
        same = assignments[src] == assignments[graph.neighbors]
        total += float(graph.weights[same].sum()) / 2.0
    return total


def cluster_weight_penalty(graph: CSRGraph, assignments: np.ndarray) -> float:
    """``sum_clusters (K_c^2 - K2_c) / 2`` — the pair-weight mass per cluster."""
    assignments = np.asarray(assignments)
    _, dense = np.unique(assignments, return_inverse=True)
    big_k = np.bincount(dense, weights=graph.node_weights)
    big_k2 = np.bincount(dense, weights=graph.node_weight_sq)
    return float(((big_k**2 - big_k2) / 2.0).sum())


def lambdacc_objective(
    graph: CSRGraph,
    assignments: np.ndarray,
    resolution: float,
    intra: Optional[float] = None,
) -> float:
    """Unordered LambdaCC objective ``F(C)`` at the given ``lambda``.

    ``intra`` is :func:`intra_cluster_edge_weight` when the caller already
    has it: graphs that share their edges and self-loops (a graph and its
    :func:`modularity_graph`) share it too.
    """
    if intra is None:
        intra = intra_cluster_edge_weight(graph, assignments)
    return intra - resolution * cluster_weight_penalty(graph, assignments)


def cc_objective(graph: CSRGraph, assignments: np.ndarray, resolution: float) -> float:
    """The paper's (ordered-pair) CC objective: ``2 F(C)``."""
    return 2.0 * lambdacc_objective(graph, assignments, resolution)


def modularity_lambda(graph: CSRGraph, gamma: float) -> float:
    """The LambdaCC resolution equivalent to modularity at ``gamma``."""
    m_w = graph.total_edge_weight
    if m_w <= 0:
        raise ValueError("modularity requires positive total edge weight")
    return gamma / (2.0 * m_w)


def modularity_graph(graph: CSRGraph) -> CSRGraph:
    """The graph re-weighted for modularity: ``k_v = weighted degree``.

    Modularity's null model needs non-negative degrees; negative edge
    weights (meaningful for correlation clustering) are rejected here.
    """
    if graph.weights.size and graph.weights.min() < 0:
        raise ValueError(
            "modularity is undefined on graphs with negative edge weights; "
            "use the correlation objective for signed graphs"
        )
    degrees = graph.weighted_degrees()
    return graph.with_node_weights(degrees, node_weight_sq=degrees**2)


def modularity(
    graph: CSRGraph,
    assignments: np.ndarray,
    gamma: float = 1.0,
    total_weight: float | None = None,
) -> float:
    """Reichardt–Bornholdt modularity ``Q`` of a clustering.

    ``gamma = 1`` recovers Girvan–Newman modularity.  ``total_weight``
    overrides ``m_w`` when evaluating a coarsened graph against the original
    normalization (the multi-level algorithm's case).
    """
    m_w = graph.total_edge_weight if total_weight is None else total_weight
    if m_w <= 0:
        raise ValueError("modularity requires positive total edge weight")
    mod_graph = modularity_graph(graph)
    f_value = lambdacc_objective(mod_graph, assignments, gamma / (2.0 * m_w))
    return f_value / m_w


def move_delta(
    graph: CSRGraph,
    assignments: np.ndarray,
    cluster_weights: np.ndarray,
    v: int,
    target: int,
    resolution: float,
) -> float:
    """Objective change (unordered ``F`` scale) of moving ``v`` to ``target``.

    Reference implementation of the Appendix A formula; the production
    kernels in :mod:`repro.core.moves` vectorize the same arithmetic.
    Used by tests to cross-check the move kernels.
    """
    nbrs, wts = graph.neighborhood(v)
    current = assignments[v]
    if target == current:
        return 0.0
    k_v = graph.node_weights[v]
    to_target = float(wts[assignments[nbrs] == target].sum())
    to_current = float(wts[assignments[nbrs] == current].sum())
    gain_target = to_target - resolution * k_v * cluster_weights[target]
    gain_current = to_current - resolution * k_v * (cluster_weights[current] - k_v)
    return gain_target - gain_current
