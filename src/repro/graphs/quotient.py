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

Both build the edges the same way.  When the native library loads, one C
call (:func:`repro.kernels.native.compress`) groups the vertices by
super-vertex and sums each super-vertex's row over its members' arcs in
arc order from 0.0, then puts the row in ascending order; that is
``np.bincount``'s order, so the result is bit-identical to the NumPy
semisort path below, which runs without a compiler.  Large graphs build
the rows on every usable core.  The
charges come from :mod:`repro.parallel.sorting`'s cost model either way.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.kernels import native
from repro.parallel.sorting import (
    charge_naive_aggregate,
    charge_semisort,
    parallel_semisort_aggregate,
)


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
        quotient = native.compress(graph, vertex_to_super, n_super, self_loops)
        if quotient is None:
            quotient = _aggregate_edges(graph, vertex_to_super, n_super, self_loops)
        offsets, new_dst, sums, inter = quotient
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


def _aggregate_edges(graph, vertex_to_super, n_super, self_loops):
    """The NumPy path of the edge aggregation: a semisort over
    ``(super-source, super-destination)`` keys.

    Returns ``(offsets, neighbors, weights, inter-cluster arcs)`` and adds
    the halved intra-cluster sums to ``self_loops`` in place.
    """
    n = graph.num_vertices
    # Semisort key construction: map each directed edge's endpoints to
    # super-vertex ids.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.offsets))
    csrc = vertex_to_super[src]
    cdst = vertex_to_super[graph.neighbors]
    intra = csrc == cdst
    if intra.any():
        # Each undirected intra-cluster edge appears twice in the
        # directed arrays, so halve the directed sum.
        self_loops += (
            np.bincount(csrc[intra], weights=graph.weights[intra], minlength=n_super)
            / 2.0
        )
    keys = csrc[~intra] * np.int64(n_super) + cdst[~intra]
    unique_keys, sums = parallel_semisort_aggregate(keys, graph.weights[~intra])
    new_src = (unique_keys // n_super).astype(np.int64)
    new_dst = (unique_keys % n_super).astype(np.int64)
    offsets = np.zeros(n_super + 1, dtype=np.int64)
    counts = np.bincount(new_src, minlength=n_super)
    np.cumsum(counts, out=offsets[1:])
    return offsets, new_dst, sums, int(keys.size)


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
