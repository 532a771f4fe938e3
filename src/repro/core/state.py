"""Mutable clustering state: assignments plus cluster aggregates.

BEST-MOVES needs, per cluster ``c``, the total vertex weight ``K_c``
(Section 3.1) and the member count (to know when a cluster slot frees up).
Cluster ids live in ``[0, n)``: vertex ``v`` starts in cluster ``v``, and a
vertex may later *escape* back to slot ``v`` when that slot is empty —
necessary under LambdaCC because negative rescaled weights can make any
occupied cluster worse than isolation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.parallel.atomics import atomic_add_window


class ClusterState:
    """Assignments with maintained ``K_c`` (weights) and sizes."""

    __slots__ = ("assignments", "cluster_weights", "cluster_sizes", "node_weights")

    def __init__(
        self,
        assignments: np.ndarray,
        cluster_weights: np.ndarray,
        cluster_sizes: np.ndarray,
        node_weights: np.ndarray,
    ) -> None:
        self.assignments = assignments
        self.cluster_weights = cluster_weights
        self.cluster_sizes = cluster_sizes
        self.node_weights = node_weights

    @classmethod
    def singletons(cls, graph: CSRGraph) -> "ClusterState":
        """Every vertex in its own cluster (cluster id = vertex id)."""
        n = graph.num_vertices
        return cls(
            assignments=np.arange(n, dtype=np.int64),
            cluster_weights=graph.node_weights.astype(np.float64).copy(),
            cluster_sizes=np.ones(n, dtype=np.int64),
            node_weights=graph.node_weights,
        )

    @classmethod
    def from_assignments(cls, graph: CSRGraph, assignments: np.ndarray) -> "ClusterState":
        """State for an existing clustering (cluster ids must be < n)."""
        n = graph.num_vertices
        assignments = np.asarray(assignments, dtype=np.int64).copy()
        if assignments.shape != (n,):
            raise ValueError(f"assignments must have shape ({n},)")
        if assignments.size and (assignments.min() < 0 or assignments.max() >= n):
            raise ValueError("cluster ids must lie in [0, n)")
        weights = np.zeros(n, dtype=np.float64)
        np.add.at(weights, assignments, graph.node_weights)
        sizes = np.bincount(assignments, minlength=n).astype(np.int64)
        return cls(assignments, weights, sizes, graph.node_weights)

    @property
    def num_vertices(self) -> int:
        return self.assignments.size

    @property
    def num_clusters(self) -> int:
        return int((self.cluster_sizes > 0).sum())

    def apply_moves(
        self,
        vertices: np.ndarray,
        targets: np.ndarray,
        sched=None,
    ) -> int:
        """Move ``vertices[i]`` to ``targets[i]``; returns how many moved.

        Models the asynchronous setting's pair of atomic updates per mover
        (leave the old cluster, join the new one), charging CAS contention
        for concurrent updates within this window; a window without movers
        charges nothing.  A round run in C (``native.KERNEL.round``)
        commits each of its windows with the same bits and contention
        integers.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        old = self.assignments[vertices]
        moving = old != targets
        if not moving.any():
            return 0
        movers = vertices[moving]
        old = old[moving]
        new = targets[moving]
        k = self.node_weights[movers].astype(np.float64)
        self.assignments[movers] = new
        # Two fetch-and-add windows: decrement sources, increment targets.
        atomic_add_window(self.cluster_weights, old, -k, sched=sched, label="K-dec")
        atomic_add_window(self.cluster_weights, new, k, sched=sched, label="K-inc")
        np.add.at(self.cluster_sizes, old, -1)
        np.add.at(self.cluster_sizes, new, 1)
        return int(movers.size)

    def move_one(self, v: int, target: int) -> bool:
        """Sequential single-vertex move (SEQUENTIAL-CC's inner step)."""
        old = self.assignments[v]
        if old == target:
            return False
        k = float(self.node_weights[v])
        self.assignments[v] = target
        self.cluster_weights[old] -= k
        self.cluster_weights[target] += k
        self.cluster_sizes[old] -= 1
        self.cluster_sizes[target] += 1
        return True

    def check_invariants(self, graph: Optional[CSRGraph] = None) -> None:
        """Raise AssertionError if aggregates disagree with assignments."""
        n = self.num_vertices
        sizes = np.bincount(self.assignments, minlength=n)
        assert np.array_equal(sizes, self.cluster_sizes), "cluster_sizes out of sync"
        weights = np.zeros(n, dtype=np.float64)
        np.add.at(weights, self.assignments, self.node_weights)
        assert np.allclose(weights, self.cluster_weights), "cluster_weights out of sync"
        if graph is not None:
            assert n == graph.num_vertices
