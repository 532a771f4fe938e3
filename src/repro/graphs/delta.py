"""Mutable delta overlay over an immutable :class:`CSRGraph`.

The dynamic subsystem (DESIGN.md §11) needs a graph that accepts edge
inserts/deletes/reweights without paying a full rebuild per update.  CSR
is the wrong shape for in-place structural mutation, so mutation is
staged: a :class:`DeltaOverlayGraph` holds an immutable base CSR plus a
dictionary of pending canonical ``(u < v) -> target weight`` entries
(weight ``0`` means "edge absent"), written a batch at a time from
arrays (:meth:`~DeltaOverlayGraph.stage`).  Reads
(:meth:`~DeltaOverlayGraph.edge_weights`) consult the overlay first,
then binary-search the base adjacency rows.

The overlay validates its base once, when it is created, as
``CSRGraph._validate`` would, also a base loaded with ``validate=False``.
Every compaction keeps a valid base valid: an untouched arc keeps its row,
and its neighbor stays below ``n``, which only grows.  So no splice
checks the base again.

:meth:`compact` splices the pending deltas into a fresh ``CSRGraph`` and
rebases the overlay on it.  The p pending pairs expand to 2p arcs ordered
by ``(src, dst)``; a binary search in each arc's sorted base row finds it
(O(p log deg), :func:`repro.kernels.native.find_arcs`) and makes it a
reweight, a delete or an insert.  A structural batch is then one C call
(:func:`repro.kernels.native.splice`): a serial pass writes ``offsets``
and checks only the staged arcs as ``CSRGraph._validate`` would, and the
rows are then copied in runs and merged with the staged arcs, on the
native pool when the base is large.  The result is built without a
second validation, and nothing of size m is sorted.  A reweight-only
batch copies ``weights`` alone and shares ``offsets``/``neighbors`` with
the base, and a batch that adds no vertex shares the base's vertex
arrays.  The result equals, array for array, what
:func:`~repro.graphs.builders.graph_from_edges` builds from the same edge
set (property-tested).  A hand-built base
with an unsorted row (no builder or generator emits one) has its rows
sorted once, when the overlay is created.

New vertex ids beyond the base simply grow ``n``; they join with unit
LambdaCC weight (``k_v = 1``, ``k_v^2 = 1``) and no self-loop, matching
every generator in :mod:`repro.graphs`.  ``graph.repairs`` provenance is
carried through compaction so ``stats_dict()["input_repairs"]`` survives
a dynamic session the same way it survives coarsening.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Tuple

import numpy as np

from repro.errors import UpdateError
from repro.graphs.csr import CSRGraph
from repro.kernels import native


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
        # Once per overlay, also for a base built with validate=False:
        # every splice keeps a valid base valid, so none checks it again.
        base._validate()
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
        return self.edge_weights([(u, v) if u < v else (v, u)])[0]

    def edge_weights(self, keys) -> list:
        """Current weights (0.0 if absent) of the canonical ``(u, v)``
        pairs ``keys`` (a sequence of pairs or a ``(k, 2)`` array), in
        order: a pending entry shadows the base, whose rows are searched
        in one :func:`~repro.kernels.native.find_arcs` call."""
        pairs = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        loops = src[src == dst]
        if loops.size:
            raise UpdateError(f"self-loop query on vertex {loops[0]}")
        pos, found = native.find_arcs(self.base, src, dst)
        weights = np.zeros(src.size)
        weights[found] = self.base.weights[pos[found]]
        weights = weights.tolist()
        if self._pending:
            for i, key in enumerate(zip(src.tolist(), dst.tolist())):
                weights[i] = self._pending.get(key, weights[i])
        return weights

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
        self.stage([u], [v], [weight])

    def stage(self, u, v, weights) -> None:
        """Stage each edge ``{u[i], v[i]}``'s weight to ``weights[i]``, in
        order, so a later row for the same edge wins (``0`` removes it).

        Vertex ids past the overlay grow it.  Every row is checked before
        any is staged: a self-loop, a non-finite weight or a negative id
        raises :class:`UpdateError` for the first bad row, and the
        overlay is left untouched.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        bad = (u == v) | ~np.isfinite(weights) | (u < 0) | (v < 0)
        if bad.any():
            i = int(np.argmax(bad))
            a, b, w = int(u[i]), int(v[i]), float(weights[i])
            if a == b:
                raise UpdateError(f"self-loop update on vertex {a} is not allowed")
            if not np.isfinite(w):
                raise UpdateError(f"non-finite edge weight {w!r} for ({a}, {b})")
            raise UpdateError(f"negative vertex id {a if a < 0 else b}")
        if u.size:
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            self._num_vertices = max(self._num_vertices, int(hi.max()) + 1)
            keys = zip(lo.tolist(), hi.tolist())
            self._pending.update(zip(keys, weights.tolist()))

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
        pairs = np.fromiter(
            chain.from_iterable(self._pending), np.int64, 2 * len(self._pending)
        ).reshape(-1, 2)
        targets = np.fromiter(self._pending.values(), dtype=np.float64)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        pos, found = native.find_arcs(self.base, src, dst)
        return src, dst, np.concatenate([targets, targets])[order], pos, found

    def _splice(self) -> CSRGraph:
        """The base with every pending arc reweighted, dropped or placed."""
        base = self.base
        old_n, n = base.num_vertices, self._num_vertices
        arcs = self._pending_arcs()
        _, _, w, pos, found = arcs
        live = w != 0.0
        grown = n - old_n
        if grown or np.any(found != live):
            # Inserts (live, not found) less deletes (found, not live).
            capacity = (
                base.neighbors.size + np.count_nonzero(live) - np.count_nonzero(found)
            )
            offsets, neighbors, weights = native.splice(base, n, arcs, capacity)
        else:
            offsets, neighbors = base.offsets, base.neighbors
            weights = base.weights.copy()
            weights[pos[found]] = w[found]
        if grown:
            self_loops = np.concatenate([base.self_loops, np.zeros(grown)])
            node_weights = np.concatenate([base.node_weights, np.ones(grown)])
            node_weight_sq = np.concatenate([base.node_weight_sq, np.ones(grown)])
        else:
            # Nothing writes a graph's vertex arrays after construction.
            self_loops = base.self_loops
            node_weights = base.node_weights
            node_weight_sq = base.node_weight_sq
        return CSRGraph(
            offsets,
            neighbors,
            weights,
            self_loops=self_loops,
            node_weights=node_weights,
            node_weight_sq=node_weight_sq,
            validate=False,
        )

