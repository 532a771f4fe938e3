"""Undirected weighted graphs in CSR form, with LambdaCC vertex weights.

Layout
------
* ``offsets`` (int64, n+1) / ``neighbors`` (int64, 2m) / ``weights``
  (float64, 2m): both directions of every undirected edge, no self-loops;
* ``self_loops`` (float64, n): self-loop weight per vertex (one-directional
  weight; a compressed cluster's internal edge mass lands here);
* ``node_weights`` (float64, n): the LambdaCC vertex weights ``k_v``
  (Section 2; 1 for plain correlation clustering, degree for modularity);
* ``node_weight_sq`` (float64, n): sum of squared *original* vertex weights
  each vertex absorbed through compression (``k_v**2`` at level 0).

The ``node_weight_sq`` channel is what makes the LambdaCC objective exact
across coarsening levels: pairs of original vertices collapsed into one
compressed vertex contribute ``-lambda * (k_v^2 - node_weight_sq[v]) / 2``
to the penalty term, so ``objective(compressed, induced clustering) ==
objective(original, flattened clustering)`` exactly (property-tested).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError


class CSRGraph:
    """An undirected weighted graph in CSR form.

    Construct with :func:`repro.graphs.builders.graph_from_edges` rather
    than directly unless you already have validated CSR arrays.
    """

    __slots__ = (
        "offsets",
        "neighbors",
        "weights",
        "self_loops",
        "node_weights",
        "node_weight_sq",
        "repairs",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        weights: np.ndarray,
        self_loops: Optional[np.ndarray] = None,
        node_weights: Optional[np.ndarray] = None,
        node_weight_sq: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        n = self.offsets.size - 1
        if self_loops is None:
            self_loops = np.zeros(n, dtype=np.float64)
        if node_weights is None:
            node_weights = np.ones(n, dtype=np.float64)
        if node_weight_sq is None:
            node_weight_sq = np.asarray(node_weights, dtype=np.float64) ** 2
        self.self_loops = np.asarray(self_loops, dtype=np.float64)
        self.node_weights = np.asarray(node_weights, dtype=np.float64)
        self.node_weight_sq = np.asarray(node_weight_sq, dtype=np.float64)
        #: Input-repair counts attached by ``read_edge_list(...,
        #: on_malformed="repair")``; ``None`` for graphs built cleanly.
        self.repairs: Optional[dict] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.num_vertices
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise GraphFormatError("offsets must be a 1-D array of length n+1 >= 1")
        if self.offsets[0] != 0:
            raise GraphFormatError("offsets[0] must be 0")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphFormatError("offsets must be non-decreasing")
        if self.neighbors.shape != self.weights.shape:
            raise GraphFormatError("neighbors and weights must have equal length")
        if self.offsets[-1] != self.neighbors.size:
            raise GraphFormatError(
                f"offsets[-1]={self.offsets[-1]} != len(neighbors)={self.neighbors.size}"
            )
        for name, arr in (
            ("self_loops", self.self_loops),
            ("node_weights", self.node_weights),
            ("node_weight_sq", self.node_weight_sq),
        ):
            if arr.shape != (n,):
                raise GraphFormatError(f"{name} must have shape ({n},), got {arr.shape}")
        if self.neighbors.size:
            if self.neighbors.min() < 0 or self.neighbors.max() >= n:
                raise GraphFormatError("neighbor ids out of range")
            src = np.repeat(np.arange(n), np.diff(self.offsets))
            if np.any(src == self.neighbors):
                raise GraphFormatError(
                    "adjacency must not contain self-loops; use self_loops array"
                )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries, 2m."""
        return self.neighbors.size

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (excluding self-loops)."""
        return self.neighbors.size // 2

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets).astype(np.int64)

    def neighborhood(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of vertex ``v``'s (neighbors, edge weights)."""
        lo, hi = self.offsets[v], self.offsets[v + 1]
        return self.neighbors[lo:hi], self.weights[lo:hi]

    def weighted_degrees(self) -> np.ndarray:
        """``d_v = sum of incident edge weights + 2 * self_loop(v)``.

        The ``2x`` self-loop convention matches standard modularity, where a
        self-loop contributes twice to its endpoint's degree.
        """
        n = self.num_vertices
        sums = np.zeros(n, dtype=np.float64)
        if self.neighbors.size:
            src = np.repeat(np.arange(n), np.diff(self.offsets))
            np.add.at(sums, src, self.weights)
        return sums + 2.0 * self.self_loops

    @property
    def total_edge_weight(self) -> float:
        """Total undirected edge weight ``m_w`` including self-loops."""
        return float(self.weights.sum()) / 2.0 + float(self.self_loops.sum())

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def with_node_weights(
        self, node_weights: np.ndarray, node_weight_sq: Optional[np.ndarray] = None
    ) -> "CSRGraph":
        """A view-sharing copy with replaced LambdaCC vertex weights."""
        derived = CSRGraph(
            self.offsets,
            self.neighbors,
            self.weights,
            self_loops=self.self_loops,
            node_weights=np.asarray(node_weights, dtype=np.float64),
            node_weight_sq=node_weight_sq,
            validate=False,
        )
        if self.repairs is not None:
            derived.repairs = dict(self.repairs)
        return derived

    def with_unit_weights(self) -> "CSRGraph":
        """Copy treating every edge as weight 1 (the paper's unweighted
        treatment of weighted graphs, superscript-less variants)."""
        derived = CSRGraph(
            self.offsets,
            self.neighbors,
            np.ones_like(self.weights),
            self_loops=(self.self_loops > 0).astype(np.float64),
            node_weights=self.node_weights,
            node_weight_sq=self.node_weight_sq,
            validate=False,
        )
        if self.repairs is not None:
            derived.repairs = dict(self.repairs)
        return derived

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def nbytes(self) -> int:
        """Bytes held by this graph's arrays (used for Figure 8)."""
        return int(
            self.offsets.nbytes
            + self.neighbors.nbytes
            + self.weights.nbytes
            + self.self_loops.nbytes
            + self.node_weights.nbytes
            + self.node_weight_sq.nbytes
        )

    def is_symmetric(self) -> bool:
        """Check every stored arc has its reverse with equal weight."""
        n = self.num_vertices
        src = np.repeat(np.arange(n), np.diff(self.offsets))
        fwd = np.lexsort((self.neighbors, src))
        rev = np.lexsort((src, self.neighbors))
        ok_ids = bool(
            np.array_equal(src[fwd], self.neighbors[rev])
            and np.array_equal(self.neighbors[fwd], src[rev])
        )
        if not ok_ids:
            return False
        return bool(np.allclose(self.weights[fwd], self.weights[rev]))

    def edge_list(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Undirected edge list ``(u, v, w)`` with ``u < v`` (no self-loops)."""
        n = self.num_vertices
        src = np.repeat(np.arange(n), np.diff(self.offsets))
        keep = src < self.neighbors
        return src[keep], self.neighbors[keep], self.weights[keep]

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"total_weight={self.total_edge_weight:.6g})"
        )
