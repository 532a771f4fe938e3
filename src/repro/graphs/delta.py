"""Mutable delta overlay over an immutable :class:`CSRGraph`.

The dynamic subsystem (DESIGN.md §11) needs a graph that accepts edge
inserts/deletes/reweights without paying a full rebuild per update.  CSR
is the wrong shape for in-place structural mutation, so mutation is
staged: a :class:`DeltaOverlayGraph` holds an immutable base CSR plus a
dictionary of pending canonical ``(u < v) -> target weight`` entries
(weight ``0`` means "edge absent").  Reads (:meth:`edge_weight`) consult
the overlay first, then binary-search the base adjacency row.

:meth:`compact` splices the pending deltas into a fresh ``CSRGraph`` and
rebases the overlay on it.  The p pending pairs expand to 2p arcs ordered
by ``(src, dst)``; a searchsorted in each arc's sorted base row finds it
(O(p log deg)) and makes it a reweight, a delete or an insert.  One O(m)
copy of ``neighbors``/``weights`` then drops and places arcs, and
``offsets`` gains a cumsum of per-row degree deltas: nothing of size m is
sorted.  A reweight-only batch copies ``weights`` alone and shares
``offsets``/``neighbors`` with the base.  The result equals, array for
array, what :func:`~repro.graphs.builders.graph_from_edges` builds from
the same edge set (property-tested).  A hand-built base with an unsorted
row (no builder or generator emits one) has its rows sorted once, when
the overlay is created.

New vertex ids beyond the base simply grow ``n``; they join with unit
LambdaCC weight (``k_v = 1``, ``k_v^2 = 1``) and no self-loop, matching
every generator in :mod:`repro.graphs`.  ``graph.repairs`` provenance is
carried through compaction so ``stats_dict()["input_repairs"]`` survives
a dynamic session the same way it survives coarsening.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import UpdateError
from repro.graphs.csr import CSRGraph


def base_edge_weight(graph: CSRGraph, u: int, v: int) -> float:
    """Weight of undirected edge ``{u, v}`` in ``graph`` (0.0 if absent),
    binary-searched in the sorted adjacency row of ``u``."""
    if u >= graph.num_vertices or v >= graph.num_vertices:
        return 0.0
    nbrs, wts = graph.neighborhood(u)
    pos = int(np.searchsorted(nbrs, v))
    return float(wts[pos]) if pos < nbrs.size and nbrs[pos] == v else 0.0


def _with_sorted_rows(graph: CSRGraph) -> CSRGraph:
    """``graph`` itself when every adjacency row is increasing, else a
    copy with each row sorted by neighbor id."""
    offsets, nbrs = graph.offsets, graph.neighbors
    descents = np.flatnonzero(nbrs[1:] <= nbrs[:-1]) + 1
    if np.array_equal(offsets[np.searchsorted(offsets, descents)], descents):
        return graph  # every descent starts a new row
    rows = np.repeat(np.arange(graph.num_vertices), np.diff(offsets))
    order = np.lexsort((nbrs, rows))
    sorted_graph = CSRGraph(
        offsets,
        nbrs[order],
        graph.weights[order],
        self_loops=graph.self_loops,
        node_weights=graph.node_weights,
        node_weight_sq=graph.node_weight_sq,
        validate=False,
    )
    sorted_graph.repairs = graph.repairs
    return sorted_graph


class DeltaOverlayGraph:
    """An immutable CSR base plus pending edge-weight deltas."""

    __slots__ = ("base", "_pending", "_num_vertices")

    def __init__(self, base: CSRGraph) -> None:
        self.base = _with_sorted_rows(base)
        #: canonical ``(min, max) -> target weight`` (0.0 = absent).
        self._pending: Dict[Tuple[int, int], float] = {}
        self._num_vertices = base.num_vertices

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Vertex count including staged (not-yet-compacted) growth."""
        return self._num_vertices

    @property
    def pending_count(self) -> int:
        """Number of distinct edges with a staged weight change."""
        return len(self._pending)

    @property
    def is_structural(self) -> bool:
        """True when compaction changes the CSR topology (the edge set or
        the vertex count), false when it only rewrites ``weights``."""
        if self._num_vertices != self.base.num_vertices:
            return True
        _, _, w, _, found = self._pending_arcs()
        return bool(np.any(found != (w != 0.0)))

    def edge_weight(self, u: int, v: int) -> float:
        """Current weight of ``{u, v}`` under the overlay (0.0 if absent)."""
        if u == v:
            raise UpdateError(f"self-loop query on vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in self._pending:
            return self._pending[key]
        return base_edge_weight(self.base, u, v)

    # ------------------------------------------------------------------ #
    # Staged mutation
    # ------------------------------------------------------------------ #

    def ensure_vertex(self, v: int) -> None:
        """Grow the vertex space to include id ``v``."""
        if v < 0:
            raise UpdateError(f"negative vertex id {v}")
        if v >= self._num_vertices:
            self._num_vertices = v + 1

    def set_edge(self, u: int, v: int, weight: float) -> None:
        """Stage ``{u, v}``'s weight to ``weight`` (``0`` removes it)."""
        if u == v:
            raise UpdateError(f"self-loop update on vertex {u} is not allowed")
        if not np.isfinite(weight):
            raise UpdateError(f"non-finite edge weight {weight!r} for ({u}, {v})")
        self.ensure_vertex(u)
        self.ensure_vertex(v)
        key = (u, v) if u < v else (v, u)
        self._pending[key] = float(weight)

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def compact(self) -> CSRGraph:
        """Splice pending deltas into a fresh CSR and rebase on it."""
        if not self._pending and self._num_vertices == self.base.num_vertices:
            return self.base
        new_graph = self._splice()
        if self.base.repairs is not None:
            new_graph.repairs = dict(self.base.repairs)
        self.base = new_graph
        self._pending = {}
        return new_graph

    def _pending_arcs(self):
        """``(src, dst, weight, pos, found)`` of both arcs of every pending
        pair, ordered by ``(src, dst)``: ``pos`` indexes the arc in the base
        arrays (its insertion point when absent; a ``src`` beyond the base
        has an empty row at the end) and ``found`` says the base has it."""
        pairs = np.array(list(self._pending), dtype=np.int64).reshape(-1, 2)
        targets = np.fromiter(self._pending.values(), dtype=np.float64)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        base = self.base
        nbrs, n = base.neighbors, base.num_vertices
        lo = base.offsets[np.minimum(src, n)]
        hi = base.offsets[np.minimum(src + 1, n)]
        rows = zip(lo.tolist(), hi.tolist(), dst.tolist())
        pos = lo + np.array([np.searchsorted(nbrs[a:b], d) for a, b, d in rows], int)
        found = pos < hi
        found[found] = nbrs[pos[found]] == dst[found]
        return src, dst, np.concatenate([targets, targets])[order], pos, found

    def _splice(self) -> CSRGraph:
        """The base with every pending arc reweighted, dropped or placed."""
        base = self.base
        old_n, n = base.num_vertices, self._num_vertices
        src, dst, w, pos, found = self._pending_arcs()
        live = w != 0.0
        weights = base.weights.copy()
        weights[pos[found & live]] = w[found & live]
        gone, new = found & ~live, ~found & live
        grown = n - old_n
        structural = grown > 0 or gone.any() or new.any()
        offsets, neighbors = base.offsets, base.neighbors
        if structural:
            drop = pos[gone]
            # Insertion points shift left by the deletions before them.
            at = pos[new] - np.searchsorted(drop, pos[new])
            neighbors = np.insert(np.delete(neighbors, drop), at, dst[new])
            weights = np.insert(np.delete(weights, drop), at, w[new])
            degree_delta = np.bincount(src[new], minlength=n)
            degree_delta -= np.bincount(src[gone], minlength=n)
            offsets = np.concatenate([offsets, np.full(grown, offsets[-1])])
            offsets[1:] += np.cumsum(degree_delta)
        return CSRGraph(
            offsets,
            neighbors,
            weights,
            self_loops=np.concatenate([base.self_loops, np.zeros(grown)]),
            node_weights=np.concatenate([base.node_weights, np.ones(grown)]),
            node_weight_sq=np.concatenate([base.node_weight_sq, np.ones(grown)]),
            validate=structural,
        )
