"""Property test: the default batch kernel and the sequential
single-vertex kernel always agree (targets and gains)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.moves import compute_batch_moves
from repro.core.state import ClusterState
from repro.graphs.builders import graph_from_edges
from repro.kernels.reference import reference_single_move


@st.composite
def state_instance(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    num_edges = draw(st.integers(min_value=0, max_value=30))
    edges = []
    weights = []
    for _ in range(num_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v))
            weights.append(draw(st.floats(min_value=-2.0, max_value=2.0)))
    graph = graph_from_edges(
        np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        weights=np.asarray(weights) if weights else None,
        num_vertices=n,
    )
    labels = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    lam = draw(st.floats(min_value=0.0, max_value=0.9))
    return graph, labels, lam


class TestKernelParity:
    @given(state_instance())
    @settings(max_examples=120, deadline=None)
    def test_single_matches_batch_of_one(self, instance):
        graph, labels, lam = instance
        state = ClusterState.from_assignments(graph, labels)
        for v in range(graph.num_vertices):
            batch_targets, batch_gains = compute_batch_moves(
                graph, state, np.asarray([v]), lam
            )
            target, gain = reference_single_move(graph, state, v, lam)
            assert target == batch_targets[0], (v, labels, lam)
            assert np.isclose(gain, batch_gains[0]), (v, labels, lam)

    @given(state_instance())
    @settings(max_examples=80, deadline=None)
    def test_batch_against_snapshot_equals_per_vertex(self, instance):
        """A full batch equals running each vertex against the same frozen
        snapshot (the definition of synchronous semantics)."""
        graph, labels, lam = instance
        state = ClusterState.from_assignments(graph, labels)
        all_vertices = np.arange(graph.num_vertices)
        batch_targets, batch_gains = compute_batch_moves(
            graph, state, all_vertices, lam
        )
        for v in range(graph.num_vertices):
            target, gain = reference_single_move(graph, state, v, lam)
            assert target == batch_targets[v]
            assert np.isclose(gain, batch_gains[v])

    @given(state_instance())
    @settings(max_examples=80, deadline=None)
    def test_gains_nonnegative(self, instance):
        graph, labels, lam = instance
        state = ClusterState.from_assignments(graph, labels)
        _, gains = compute_batch_moves(
            graph, state, np.arange(graph.num_vertices), lam
        )
        assert np.all(gains >= -1e-12)
