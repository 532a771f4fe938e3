"""Graph compression (PARALLEL-COMPRESS / SEQUENTIAL-COMPRESS).

Compressing a clustering ``C`` of ``G`` produces ``G'`` whose vertices are
the clusters of ``C``: vertex weights accumulate (``k'(c) = K_c``), parallel
edges between cluster pairs combine into one edge with the summed weight,
and intra-cluster edge mass becomes a self-loop (Section 3.1).

Two cost models are provided over the same result:

* :func:`compress_graph` — the paper's work-efficient parallelization:
  edges aggregated by (cluster, cluster) key with a parallel semisort, in
  polylogarithmic depth (Appendix B / Section 4.2);
* :func:`compress_graph_naive` — a non-work-efficient aggregation modelling
  implementations (NetworKit's, per the paper) that lack the parallel-sort
  compression; used by the PLM baseline and the compression ablation.

Both build the edges the same way, in one C call
(:func:`repro.kernels.native.compress`): it groups the vertices by
super-vertex and sums each super-vertex's row over its members' arcs in
arc order from 0.0, then puts the row in ascending order, which is what
a semisort with ``np.bincount`` sums gives.  Large graphs build the rows
on every usable core.  The charges come from
:mod:`repro.parallel.sorting`'s cost model.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.kernels import native
from repro.parallel.sorting import charge_naive_aggregate, charge_semisort


def _relabel_dense(assignments: np.ndarray) -> Tuple[np.ndarray, int]:
    """Map arbitrary cluster ids to ``[0, n')``; returns (map per vertex, n')."""
    unique, vertex_to_super = np.unique(assignments, return_inverse=True)
    return vertex_to_super.astype(np.int64), int(unique.size)


def _compress(
    graph: CSRGraph,
    assignments: np.ndarray,
    sched,
    work_efficient: bool,
) -> Tuple[CSRGraph, np.ndarray]:
    assignments = np.asarray(assignments, dtype=np.int64)
    n = graph.num_vertices
    if assignments.shape != (n,):
        raise ValueError(f"assignments must have shape ({n},), got {assignments.shape}")
    vertex_to_super, n_super = _relabel_dense(assignments)

    node_weights = np.bincount(
        vertex_to_super, weights=graph.node_weights, minlength=n_super
    )
    node_weight_sq = np.bincount(
        vertex_to_super, weights=graph.node_weight_sq, minlength=n_super
    )
    self_loops = np.bincount(
        vertex_to_super, weights=graph.self_loops, minlength=n_super
    )
    if sched is not None:
        sched.charge(work=float(3 * n), depth=np.log2(max(n, 2)), label="compress-nodes")

    if graph.num_directed_edges:
        offsets, new_dst, sums, inter = native.compress(
            graph, vertex_to_super, n_super, self_loops
        )
        # The semisort charges its inter-cluster arcs (none: no charge).
        if work_efficient:
            charge_semisort(sched, inter, label="compress-semisort")
        else:
            charge_naive_aggregate(sched, inter, n_super, label="compress-naive")
    else:
        offsets = np.zeros(n_super + 1, dtype=np.int64)
        new_dst = np.zeros(0, dtype=np.int64)
        sums = np.zeros(0, dtype=np.float64)
    compressed = CSRGraph(
        offsets,
        new_dst,
        sums,
        self_loops=self_loops,
        node_weights=node_weights,
        node_weight_sq=node_weight_sq,
        validate=False,
    )
    if graph.repairs is not None:
        # Repair provenance rides the coarsening so multilevel runs keep
        # reporting stats_dict()["input_repairs"] at every level.
        compressed.repairs = dict(graph.repairs)
    return compressed, vertex_to_super


def compress_graph(
    graph: CSRGraph, assignments: np.ndarray, sched=None
) -> Tuple[CSRGraph, np.ndarray]:
    """Work-efficient PARALLEL-COMPRESS.

    Returns ``(compressed_graph, vertex_to_super)`` where
    ``vertex_to_super[v]`` is the compressed-vertex id of ``v``'s cluster.
    """
    return _compress(graph, assignments, sched, work_efficient=True)


def compress_graph_naive(
    graph: CSRGraph, assignments: np.ndarray, sched=None
) -> Tuple[CSRGraph, np.ndarray]:
    """Compression with the non-work-efficient aggregation cost model."""
    return _compress(graph, assignments, sched, work_efficient=False)
