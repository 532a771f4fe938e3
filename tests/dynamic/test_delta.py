"""DeltaOverlayGraph: staged mutation and the splice compaction.

The splice must produce, array for array, the CSR that
:func:`graph_from_edges` builds from scratch on the same edge set; the
oracle below is that from-scratch build.
"""

import contextlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DynamicClusterer
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.errors import GraphFormatError, UpdateError
from repro.generators import lfr_like_graph, rmat_graph
from repro.graphs.builders import graph_from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.delta import DeltaOverlayGraph, base_edge_weight
from repro.graphs.karate import karate_club_graph
from repro.kernels import native
from tests.oracles import reference_paths, search_arcs, splice_arrays

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


def library(mode):
    """``"native"``: the C splice and search; ``"numpy"``: their NumPy
    references (:func:`tests.oracles.reference_paths`)."""
    if mode == "native":
        return contextlib.nullcontext()
    return reference_paths()


LIBRARY_MODES = ("native", "numpy")


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

    def test_vertex_arrays_shared_without_growth(self):
        g = karate_club_graph()
        overlay = DeltaOverlayGraph(g)
        overlay.set_edge(0, 9, 1.0)
        overlay.set_edge(0, 1, 0.0)
        before = overlay.base
        got = overlay.compact()
        assert got.num_vertices == before.num_vertices
        assert got.neighbors is not before.neighbors
        assert got.self_loops is before.self_loops
        assert got.node_weights is before.node_weights
        assert got.node_weight_sq is before.node_weight_sq

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
    """Every spliced CSR equals the from-scratch build of its edge set,
    through the C splice and through the NumPy one."""

    @given(update_streams())
    @settings(max_examples=80, deadline=None)
    def test_splice_equals_from_scratch(self, stream):
        with library("native"):
            self._replay(stream)

    @given(update_streams())
    @settings(max_examples=80, deadline=None)
    def test_numpy_splice_equals_from_scratch(self, stream):
        with library("numpy"):
            self._replay(stream)

    def _replay(self, stream):
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
            if got.num_vertices == before.num_vertices:
                assert got.node_weights is before.node_weights


def splice_both(base, steps, grow_to=None):
    """Stage ``steps`` (``(u, v, weight)``) on an overlay of ``base`` once
    per library mode and compact; asserts both results equal the
    from-scratch oracle, and returns the native one."""
    edges = edge_dict(base)
    results = {}
    for mode in LIBRARY_MODES:
        with library(mode):
            overlay = DeltaOverlayGraph(base)
            if grow_to is not None:
                overlay.ensure_vertex(grow_to - 1)
            for u, v, w in steps:
                overlay.set_edge(u, v, w)
            n = overlay.num_vertices
            results[mode] = overlay.compact()
    for u, v, w in steps:
        key = (min(u, v), max(u, v))
        if w == 0.0:
            edges.pop(key, None)
        else:
            edges[key] = w
    want = oracle(base, edges, n)
    for got in results.values():
        assert_same_csr(got, want)
    return results["native"]


class TestSpliceCases:
    """Fixed splices through both paths, against the oracle."""

    def test_vertex_growth(self):
        base = cached_base("lfr")
        n = base.num_vertices
        got = splice_both(base, [(0, n + 3, 2.0), (n + 1, n + 2, 1.5)])
        assert got.num_vertices == n + 4
        assert got.degree(n) == 0

    def test_growth_without_edges(self):
        base = cached_base("rmat")
        got = splice_both(base, [], grow_to=base.num_vertices + 5)
        assert got.num_vertices == base.num_vertices + 5

    def test_delete_every_arc_of_a_row(self):
        base = cached_base("lfr")
        v = int(np.argmax(base.degrees()))
        nbrs, _ = base.neighborhood(v)
        got = splice_both(base, [(v, int(u), 0.0) for u in nbrs])
        assert got.degree(v) == 0

    def test_delete_first_and_last_arcs(self):
        base = cached_base("rmat")
        first_row = int(np.flatnonzero(base.degrees())[0])
        last_row = int(np.flatnonzero(base.degrees())[-1])
        steps = [
            (first_row, int(base.neighborhood(first_row)[0][0]), 0.0),
            (last_row, int(base.neighborhood(last_row)[0][-1]), 0.0),
        ]
        got = splice_both(base, steps)
        assert got.num_edges == base.num_edges - 2

    def test_insert_into_empty_rows_and_past_the_base(self):
        base = unsorted_base()  # rows 0, 4 and 8 are empty
        steps = [(0, 4, 1.0), (8, 1, 2.0), (11, 0, 0.5), (12, 13, 3.0)]
        got = splice_both(DeltaOverlayGraph(base).base, steps)
        assert got.num_vertices == 14
        assert got.degree(0) == 2

    def test_insert_then_delete_cancels(self):
        base = cached_base("lfr")
        n = base.num_vertices
        got = splice_both(base, [(0, n - 1, 0.0), (1, n + 2, 1.0), (1, n + 2, 0.0)])
        assert got.num_vertices == n + 3
        assert got.degree(n + 2) == 0

    def test_structural_and_reweight_mixed(self):
        base = cached_base("rmat")
        u, v, _ = base.edge_list()
        steps = [(int(u[0]), int(v[0]), 7.0), (int(u[1]), int(v[1]), 0.0)]
        steps.append((0, base.num_vertices - 1, 1.0))
        splice_both(base, steps)

    def test_native_equals_numpy_splice_arrays(self):
        base = cached_base("rmat")
        overlay = DeltaOverlayGraph(base)
        rng = np.random.default_rng(5)
        for a, b in rng.integers(0, base.num_vertices + 4, size=(40, 2)):
            if a != b:
                overlay.set_edge(int(a), int(b), float(rng.integers(0, 3)))
        arcs = overlay._pending_arcs()
        want = splice_arrays(base, overlay.num_vertices, arcs)
        got = native.splice(base, overlay.num_vertices, arcs, want[1].size)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def sparse_ids_base():
    """An LFR graph with its ids doubled: every odd vertex is an empty
    row, inside long verbatim runs of ~10k arcs."""
    g = lfr_like_graph(1200, mixing=0.3, seed=3).graph
    u, v, w = g.edge_list()
    return graph_from_edges(
        np.stack([2 * u, 2 * v], axis=1), weights=w, num_vertices=2 * g.num_vertices
    )


def bad_base(fault):
    """``sparse_ids_base`` built with ``validate=False`` and one bad arc
    (a self-loop or a neighbor of -1) near its last row."""
    good = sparse_ids_base()
    neighbors = good.neighbors.copy()
    row = good.num_vertices - 2
    neighbors[good.offsets[row]] = row if fault == "self-loop" else -1
    return CSRGraph(good.offsets, neighbors, good.weights, validate=False)


class TestLargeSplice:
    """Long verbatim runs with empty rows inside them, and bad bases."""

    def test_sparse_rows_equal_oracle(self):
        base = sparse_ids_base()
        assert base.num_directed_edges > 2 * 4096
        n = base.num_vertices
        splice_both(base, [(1, 3, 1.0), (n - 2, n - 1, 2.0), (n // 2, 5, 0.5)])

    def test_rows_tracked_across_blocks(self):
        """A path through all but every seventh vertex: each arc's neighbor
        is one or two ids from its row, so an offset off by one anywhere
        moves an arc to the wrong row."""
        ids = np.array([v for v in range(7000) if v % 7 != 3])
        base = graph_from_edges(np.stack([ids[:-1], ids[1:]], axis=1), num_vertices=7000)
        assert base.num_directed_edges > 2 * 4096
        got = splice_both(base, [(0, 3, 1.0), (6999, 6997, 0.0)])
        assert got.degree(3) == 1

    @pytest.mark.parametrize("mode", LIBRARY_MODES)
    @pytest.mark.parametrize("fault", ["self-loop", "out-of-range"])
    def test_bad_base_arc_far_from_the_staged_rows(self, mode, fault):
        """The splice does not check base arcs, so the overlay checks its
        base once, when it is created: no CSR is built over a bad arc."""
        base = bad_base(fault)
        with library(mode):
            with pytest.raises(GraphFormatError):
                DeltaOverlayGraph(base)

    @pytest.mark.parametrize("fault", ["self-loop", "out-of-range"])
    def test_clusterer_on_a_bad_unvalidated_graph(self, fault):
        base = bad_base(fault)
        labels = np.arange(base.num_vertices)
        with pytest.raises(GraphFormatError):
            DynamicClusterer(base, labels, ClusteringConfig(resolution=0.1, seed=1))


#: Arcs from which a splice copies its rows on the pool (native.c's
#: SPLIT_MIN_ARCS), and rows per chunk of that job (SPLICE_ROWS x CHUNK).
SPLIT_MIN_ARCS = 65536
CHUNK_ROWS = 16 * 64


def large_base():
    """An LFR graph of ~72k arcs: its splices split on two cores."""
    if "large" not in _BASE_CACHE:
        _BASE_CACHE["large"] = lfr_like_graph(10_000, mixing=0.3, seed=1).graph
    base = _BASE_CACHE["large"]
    assert base.num_directed_edges >= SPLIT_MIN_ARCS
    return base


@contextlib.contextmanager
def one_core():
    """The calling thread may run on one core only, so its splices stay
    serial (native.c counts this thread's cores, as usable_cores does)."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def needs_two_cores():
    if native.usable_cores() < 2:
        pytest.skip("a splice splits only on two or more usable cores")


def _split_splices():
    return native.pool_stats()["split_splices"]


GUARD = 64
SENTINEL = -7


def guarded_splice(base, n, arcs, capacity):
    """``repro_splice`` called directly into outputs ``GUARD`` entries
    longer than ``capacity``, all holding ``SENTINEL``; returns its
    status and the padded outputs."""
    lib = native.KERNEL.library.load()
    offsets, neighbors, weights = base.offsets, base.neighbors, base.weights
    src, dst, w, pos, found = (
        np.ascontiguousarray(a, dtype=dt)
        for a, dt in zip(arcs, (np.int64, np.int64, np.float64, np.int64, np.bool_))
    )
    out_offsets = np.full(n + 1, SENTINEL, dtype=np.int64)
    out_neighbors = np.full(capacity + GUARD, SENTINEL, dtype=np.int64)
    out_weights = np.full(capacity + GUARD, SENTINEL, dtype=np.float64)
    status = lib.repro_splice(
        *(native._address(a) for a in (offsets, neighbors, weights)),
        base.num_vertices,
        n,
        *(native._address(a) for a in (src, dst, w, pos, found)),
        src.size,
        capacity,
        *(native._address(a) for a in (out_offsets, out_neighbors, out_weights)),
    )
    return status, out_neighbors, out_weights


class TestSplitSplice:
    """A large base's rows are copied on the pool: the result equals the
    serial splice and the NumPy one, array for array."""

    def _steps(self, base):
        n = base.num_vertices
        rows = [0, 15, 16, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
        rows += [2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS, n - 2, n - 1]
        steps = []
        for i, v in enumerate(rows):
            nbrs, _ = base.neighborhood(v)
            steps.append((v, int(nbrs[0]), 0.0))  # delete the row's first arc
            steps.append((v, int(nbrs[-1]), 2.5 + i))  # reweight its last
            steps.append((v, (v + 7) % n, 1.0))  # insert or reweight
        steps += [(3, n + 2, 1.5), (n + 1, n + 3, 2.0), (n - 1, n, 0.5)]
        return steps

    def _arcs(self, base, steps):
        overlay = DeltaOverlayGraph(base)
        for u, v, w in steps:
            overlay.set_edge(u, v, w)
        return overlay.num_vertices, overlay._pending_arcs()

    def test_split_equals_serial_and_numpy(self):
        needs_two_cores()
        base = large_base()
        n, arcs = self._arcs(base, self._steps(base))
        want = splice_arrays(base, n, arcs)
        before = _split_splices()
        with one_core():
            serial = native.splice(base, n, arcs, want[1].size)
        assert _split_splices() == before
        split = native.splice(base, n, arcs, want[1].size)
        assert _split_splices() == before + 1
        for got in (serial, split):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_compaction_splits_and_equals_the_oracle(self):
        needs_two_cores()
        before = _split_splices()
        got = splice_both(large_base(), self._steps(large_base()))
        assert _split_splices() == before + 1
        assert got.num_vertices == large_base().num_vertices + 4

    def test_small_bases_stay_serial(self):
        before = _split_splices()
        splice_both(sparse_ids_base(), [(1, 3, 1.0), (6, 8, 0.0)])
        assert sparse_ids_base().num_directed_edges < SPLIT_MIN_ARCS
        assert _split_splices() == before


class TestSpliceRejects:
    """Pending entries injected past ``set_edge``'s checks: the C splice
    refuses them and the overlay keeps its base and pending entries."""

    @staticmethod
    def base():
        return cached_base("lfr")

    def _reject(self, inject):
        base = self.base()
        overlay = DeltaOverlayGraph(base)
        overlay.set_edge(0, 5, 1.0)
        inject(overlay._pending)
        pending = dict(overlay._pending)
        with pytest.raises(GraphFormatError):
            overlay.compact()
        assert overlay.base is base
        assert overlay._pending == pending
        # Nothing was copied: the outputs hold their sentinels.
        arcs = overlay._pending_arcs()
        capacity = base.num_directed_edges + 4
        status, out_neighbors, out_weights = guarded_splice(
            base, overlay.num_vertices, arcs, capacity
        )
        assert status == -1
        assert (out_neighbors == SENTINEL).all() and (out_weights == SENTINEL).all()

    def test_self_loop(self):
        self._reject(lambda pending: pending.__setitem__((3, 3), 1.0))

    def test_destination_past_num_vertices(self):
        self._reject(lambda pending: pending.__setitem__((1, 10_000), 1.0))

    def test_capacity_too_small(self):
        base = self.base()
        overlay = DeltaOverlayGraph(base)
        overlay.set_edge(0, base.num_vertices - 1, 1.0)
        arcs = overlay._pending_arcs()
        size = base.neighbors.size + 2
        for capacity in (size - 1, size - 2, 0):
            with pytest.raises(GraphFormatError):
                native.splice(base, base.num_vertices, arcs, capacity)
            status, out_neighbors, out_weights = guarded_splice(
                base, base.num_vertices, arcs, capacity
            )
            assert status == -1
            assert (out_neighbors[capacity:] == SENTINEL).all()
            assert (out_weights[capacity:] == SENTINEL).all()
        offsets, _, _ = native.splice(base, base.num_vertices, arcs, size)
        assert offsets[-1] == size


class TestSplitSpliceRejects(TestSpliceRejects):
    """The same refusals on a base whose splices split on the pool."""

    @staticmethod
    def base():
        return large_base()


class TestFindArcs:
    def test_native_equals_searchsorted(self):
        base = cached_base("rmat")
        rng = np.random.default_rng(3)
        src = rng.integers(0, base.num_vertices + 3, size=300)
        dst = rng.integers(0, base.num_vertices + 3, size=300)
        u, v, _ = base.edge_list()
        src = np.concatenate([src, u, v]).astype(np.int64)
        dst = np.concatenate([dst, v, u]).astype(np.int64)
        pos, found = native.find_arcs(base, src, dst)
        want_pos, want_found = search_arcs(base, src, dst)
        assert np.array_equal(pos, want_pos)
        assert np.array_equal(found, want_found)
        assert found[300:].all()

    @pytest.mark.parametrize("mode", LIBRARY_MODES)
    def test_edge_weights_match_edge_weight(self, mode):
        base = cached_base("lfr")
        n = base.num_vertices
        u, v, _ = base.edge_list()
        gone = (int(u[0]), int(v[0]))
        with library(mode):
            overlay = DeltaOverlayGraph(base)
            overlay.set_edge(0, 7, 2.5)
            overlay.set_edge(*gone, 0.0)
            keys = [(0, 7), gone, (0, n + 1), (n, n + 1)]
            keys += [(int(a), int(b)) for a, b in zip(u[:50], v[:50])]
            keys += [(1, 2), (2, 3), (0, 7)]
            got = overlay.edge_weights(keys)
        assert got == [overlay.edge_weight(a, b) for a, b in keys]
        assert got[:4] == [2.5, 0.0, 0.0, 0.0]
        assert got[5] > 0.0

    def test_edge_weights_rejects_self_loop(self):
        overlay = DeltaOverlayGraph(graph_from_edges([(0, 1)]))
        with pytest.raises(UpdateError, match="self-loop"):
            overlay.edge_weights([(0, 1), (1, 1)])


def update_stream(graph, seed, batches=6, per_batch=30):
    """Mixed batches: deletes and reweights of live edges, inserts of new
    and repeated pairs, and edges to vertices past the graph."""
    rng = np.random.default_rng(seed)
    edges = dict(edge_dict(graph))
    n = graph.num_vertices
    stream = []
    for _ in range(batches):
        ops = []
        for _ in range(per_batch):
            kind = rng.integers(0, 4)
            live = sorted(edges)
            if kind < 2 and live:
                u, v = live[rng.integers(0, len(live))]
                if kind == 0:
                    ops.append(EdgeUpdate("delete", u, v))
                    del edges[(u, v)]
                else:
                    w = float(rng.integers(1, 4))
                    ops.append(EdgeUpdate("reweight", u, v, w))
                    edges[(u, v)] = w
            else:
                u, v = (int(x) for x in rng.integers(0, n + 2, size=2))
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                ops.append(EdgeUpdate("insert", u, v, 1.0))
                edges[key] = edges.get(key, 0.0) + 1.0
                n = max(n, key[1] + 1)
        stream.append(UpdateBatch(ops))
    return stream


class TestClustererParity:
    """A DynamicClusterer session on the C paths equals the same session
    on the reference paths."""

    def _session(self, mode):
        graph = lfr_like_graph(150, mixing=0.3, seed=2).graph
        config = ClusteringConfig(resolution=0.1, seed=4)
        with library(mode):
            dc = DynamicClusterer.bootstrap(graph, config)
            reports = [dc.apply(batch) for batch in update_stream(graph, 9)]
            return {
                "assignments": dc.state.assignments.copy(),
                "graph": dc.graph,
                "f": [r.f_objective for r in reports],
                "sim": dc.sim_seconds,
                "audit": dc.audit(),
                "rejects": dc.validate(
                    [EdgeUpdate("delete", 0, graph.num_vertices + 9)]
                ),
            }

    def test_library_on_equals_off(self):
        on, off = self._session("native"), self._session("numpy")
        assert np.array_equal(on["assignments"], off["assignments"])
        assert_same_csr(on["graph"], off["graph"])
        assert on["f"] == off["f"]
        assert on["sim"] == off["sim"]
        assert on["audit"] == off["audit"] == []
        assert on["rejects"] == off["rejects"] != [None]
