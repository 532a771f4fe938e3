"""DeltaOverlayGraph: staged mutation and the splice compaction.

The splice must produce, array for array, the CSR that
:func:`graph_from_edges` builds from scratch on the same edge set; the
oracle below is that from-scratch build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UpdateError
from repro.generators import lfr_like_graph, rmat_graph
from repro.graphs.builders import graph_from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.delta import DeltaOverlayGraph, base_edge_weight
from repro.graphs.karate import karate_club_graph

pytestmark = pytest.mark.dynamic

CSR_ARRAYS = (
    "offsets", "neighbors", "weights", "self_loops", "node_weights", "node_weight_sq"
)


def edge_dict(graph):
    u, v, w = graph.edge_list()
    return {(int(a), int(b)): float(x) for a, b, x in zip(u, v, w)}


def oracle(base, edges, n):
    """From-scratch CSR of ``edges`` on ``n`` vertices; vertex-side arrays
    are the base's, with new vertices at k_v = k_v^2 = 1, no self-loop."""
    grown = n - base.num_vertices
    pairs = sorted(edges)
    graph = graph_from_edges(
        np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        weights=np.asarray([edges[k] for k in pairs], dtype=np.float64),
        num_vertices=n,
        node_weights=np.concatenate([base.node_weights, np.ones(grown)]),
    )
    graph.self_loops[:] = np.concatenate([base.self_loops, np.zeros(grown)])
    graph.node_weight_sq[:] = np.concatenate([base.node_weight_sq, np.ones(grown)])
    return graph


def assert_same_csr(got, want):
    for name in CSR_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def unsorted_base():
    """A hand-built base whose rows run in descending neighbor order, with
    empty rows (0, 4, 8), edges on the last vertex, and non-default
    vertex weights and self-loops."""
    sorted_graph = graph_from_edges(
        [(1, 2), (1, 3), (1, 7), (2, 3), (3, 5), (5, 6), (6, 7), (2, 9), (7, 9)],
        weights=np.asarray([1.0, 2.0, 0.5, 3.0, 1.0, 1.0, 4.0, 2.5, 1.0]),
        num_vertices=10,
    )
    offsets = sorted_graph.offsets
    order = np.concatenate(
        [np.arange(hi - 1, lo - 1, -1) for lo, hi in zip(offsets[:-1], offsets[1:])]
    ).astype(np.int64)
    nw = np.arange(1.0, 11.0)
    return CSRGraph(
        offsets,
        sorted_graph.neighbors[order],
        sorted_graph.weights[order],
        self_loops=np.linspace(0.0, 0.9, 10),
        node_weights=nw,
        node_weight_sq=nw**2 + 1.0,
    )


BASES = {
    "lfr": lambda: lfr_like_graph(60, mixing=0.3, seed=1).graph,
    "rmat": lambda: rmat_graph(6, 150, seed=1),
    "unsorted": unsorted_base,
}
_BASE_CACHE = {}


def cached_base(name):
    if name not in _BASE_CACHE:
        _BASE_CACHE[name] = BASES[name]()
    return _BASE_CACHE[name]


class TestBaseEdgeWeight:
    def test_present_edge(self):
        g = graph_from_edges([(0, 1), (1, 2)], weights=np.asarray([2.0, 0.5]))
        assert base_edge_weight(g, 0, 1) == 2.0
        assert base_edge_weight(g, 1, 0) == 2.0

    def test_absent_edge(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        assert base_edge_weight(g, 0, 2) == 0.0

    def test_out_of_range(self):
        g = graph_from_edges([(0, 1)])
        assert base_edge_weight(g, 0, 99) == 0.0


class TestOverlayReads:
    def test_reads_through_to_base(self):
        g = karate_club_graph()
        overlay = DeltaOverlayGraph(g)
        assert overlay.edge_weight(0, 1) == 1.0
        assert overlay.edge_weight(0, 9) == 0.0

    def test_pending_shadows_base(self):
        overlay = DeltaOverlayGraph(graph_from_edges([(0, 1)]))
        overlay.set_edge(0, 1, 5.0)
        assert overlay.edge_weight(0, 1) == 5.0
        assert overlay.edge_weight(1, 0) == 5.0

    def test_self_loop_query_rejected(self):
        overlay = DeltaOverlayGraph(graph_from_edges([(0, 1)]))
        with pytest.raises(UpdateError, match="self-loop"):
            overlay.edge_weight(2, 2)


class TestCompaction:
    def test_noop_compact_returns_base(self):
        g = karate_club_graph()
        overlay = DeltaOverlayGraph(g)
        assert overlay.compact() is g

    def test_reweight_uses_fast_path(self):
        g = karate_club_graph()
        overlay = DeltaOverlayGraph(g)
        overlay.set_edge(0, 1, 3.0)
        assert not overlay.is_structural
        compacted = overlay.compact()
        # Fast path: topology arrays are shared, only weights are new.
        assert compacted.offsets is g.offsets
        assert compacted.neighbors is g.neighbors
        assert base_edge_weight(compacted, 0, 1) == 3.0
        assert compacted.num_edges == g.num_edges

    def test_insert_and_delete_rebuild(self):
        g = karate_club_graph()
        overlay = DeltaOverlayGraph(g)
        overlay.set_edge(0, 9, 1.0)  # absent in karate -> structural
        overlay.set_edge(0, 1, 0.0)  # delete
        assert overlay.is_structural
        compacted = overlay.compact()
        expected = edge_dict(g)
        expected[(0, 9)] = 1.0
        del expected[(0, 1)]
        assert edge_dict(compacted) == expected

    def test_fast_path_matches_rebuild(self):
        """Reweights through the fast path equal a from-scratch build."""
        g = karate_club_graph()
        overlay = DeltaOverlayGraph(g)
        edges = edge_dict(g)
        for (u, v), w in [((0, 1), 2.5), ((2, 3), 0.25)]:
            overlay.set_edge(u, v, w)
            edges[(u, v)] = w
        assert not overlay.is_structural
        assert_same_csr(overlay.compact(), oracle(g, edges, g.num_vertices))

    def test_unsorted_base_rows_sorted_once(self):
        g = unsorted_base()
        overlay = DeltaOverlayGraph(g)
        assert overlay.base is not g
        assert overlay.edge_weight(1, 7) == 0.5
        assert_same_csr(overlay.base, oracle(g, edge_dict(g), g.num_vertices))
        assert DeltaOverlayGraph(overlay.base).base is overlay.base

    def test_vertex_growth(self):
        g = graph_from_edges([(0, 1)])
        overlay = DeltaOverlayGraph(g)
        overlay.set_edge(1, 4, 2.0)
        assert overlay.num_vertices == 5
        compacted = overlay.compact()
        assert compacted.num_vertices == 5
        assert np.array_equal(compacted.node_weights, np.ones(5))
        assert np.array_equal(compacted.node_weight_sq, np.ones(5))
        assert base_edge_weight(compacted, 1, 4) == 2.0

    def test_insert_then_delete_cancels(self):
        g = graph_from_edges([(0, 1)])
        overlay = DeltaOverlayGraph(g)
        overlay.set_edge(0, 2, 1.0)
        overlay.set_edge(0, 2, 0.0)
        compacted = overlay.compact()
        assert base_edge_weight(compacted, 0, 2) == 0.0
        assert compacted.num_edges == 1

    def test_compact_rebases(self):
        overlay = DeltaOverlayGraph(graph_from_edges([(0, 1)]))
        overlay.set_edge(0, 1, 4.0)
        first = overlay.compact()
        assert overlay.base is first
        assert overlay.pending_count == 0
        overlay.set_edge(0, 1, 0.0)
        second = overlay.compact()
        assert second.num_edges == 0

    def test_repairs_propagate_through_compaction(self):
        g = karate_club_graph()
        g.repairs = {"bad_weight": 2}
        overlay = DeltaOverlayGraph(g)
        overlay.set_edge(0, 1, 3.0)
        assert overlay.compact().repairs == {"bad_weight": 2}
        overlay.set_edge(0, 9, 1.0)
        assert overlay.compact().repairs == {"bad_weight": 2}

    def test_set_edge_validation(self):
        overlay = DeltaOverlayGraph(graph_from_edges([(0, 1)]))
        with pytest.raises(UpdateError, match="self-loop"):
            overlay.set_edge(1, 1, 1.0)
        with pytest.raises(UpdateError, match="non-finite"):
            overlay.set_edge(0, 1, float("inf"))
        with pytest.raises(UpdateError, match="negative"):
            overlay.ensure_vertex(-2)


@st.composite
def update_streams(draw):
    """A base name plus 1-4 batches of update recipes.

    Each op is an ``(kind, a, b, weight)`` recipe resolved against the
    live edge set when the test replays it, so deletes and reweights hit
    present edges and "flip" deletes a present edge, then reinserts it.
    """
    name = draw(st.sampled_from(sorted(BASES)))
    weight = st.one_of(
        st.integers(1, 4).map(float),
        st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False),
    )
    op = st.tuples(
        st.sampled_from(["insert", "delete", "reweight", "flip", "cancel"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        weight,
    )
    batches = draw(st.lists(st.lists(op, max_size=12), min_size=1, max_size=4))
    return name, batches


def pick_vertex(index, n):
    """Bias picks toward the first vertex, the last vertex and ids beyond n."""
    specials = (0, n - 1, n, n + 2)
    return specials[index % 4] if index % 3 == 0 else index % (n + 3)


class TestSpliceProperty:
    """Every spliced CSR equals the from-scratch build of its edge set."""

    @given(update_streams())
    @settings(max_examples=80, deadline=None)
    def test_splice_equals_from_scratch(self, stream):
        name, batches = stream
        base = cached_base(name)
        overlay = DeltaOverlayGraph(base)
        edges = edge_dict(base)
        for batch in batches:
            start_edges, n = dict(edges), overlay.num_vertices
            for kind, a, b, w in batch:
                live = sorted(edges)
                if kind in ("delete", "reweight", "flip") and live:
                    steps = {
                        "delete": [0.0], "reweight": [w], "flip": [0.0, w]
                    }[kind]
                    u, v = live[a % len(live)]
                else:
                    u, v = pick_vertex(a, n), pick_vertex(b, n)
                    if u == v:
                        continue
                    steps = [edges.get((min(u, v), max(u, v)), 0.0) + w]
                    if kind == "cancel":
                        steps.append(0.0)
                for target in steps:
                    overlay.set_edge(u, v, target)
                    key = (min(u, v), max(u, v))
                    if target == 0.0:
                        edges.pop(key, None)
                    else:
                        edges[key] = target
            changed = set(edges) != set(start_edges) or overlay.num_vertices != n
            assert overlay.is_structural == changed
            before = overlay.base
            staged = overlay.pending_count > 0 or changed
            got = overlay.compact()
            if not staged:
                assert got is before
                continue
            assert_same_csr(got, oracle(base, edges, overlay.num_vertices))
            if not changed:
                # Reweight-only: the topology arrays are shared.
                assert got.offsets is before.offsets
                assert got.neighbors is before.neighbors
