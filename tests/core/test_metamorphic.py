"""Metamorphic oracles: inputs whose optimal clustering is known exactly.

Veldt, Gleich and Wirth's LambdaCC objective has two closed-form corners.
With ``lambda = 0`` no pair costs anything, so the connected components
are optimal.  With unit vertex weights and every edge lighter than
``lambda``, each intra-cluster pair loses weight, so all singletons are
optimal.  Every engine, in both modes, must land on them.
"""

import numpy as np
import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig, Mode
from repro.core.engines import ENGINES
from repro.core.options import RunOptions
from repro.generators.rmat import rmat_graph
from repro.graphs.builders import graph_from_edges
from repro.graphs.stats import connected_components

_GRAPH = rmat_graph(9, 3 * 2**9, seed=1)

_ENGINE_CASES = [None] + sorted(ENGINES)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def _light_graph():
    src = np.repeat(np.arange(_GRAPH.num_vertices), np.diff(_GRAPH.offsets))
    upper = src < _GRAPH.neighbors
    edges = np.stack([src[upper], _GRAPH.neighbors[upper]], axis=1)
    # Weights in (0, 0.5]: below lambda = 0.6 by a margin.
    weights = 0.5 - np.random.default_rng(5).uniform(0.0, 0.5, len(edges))
    return graph_from_edges(
        edges, weights=weights, num_vertices=_GRAPH.num_vertices
    )


_LIGHT = _light_graph()


def _run(graph, resolution, engine, mode):
    config = ClusteringConfig(resolution=resolution, seed=3, mode=mode)
    return cluster(graph, config, RunOptions(engine=engine))


@pytest.mark.parametrize("mode", [Mode.SYNC, Mode.ASYNC], ids=lambda m: m.value)
@pytest.mark.parametrize("engine", _ENGINE_CASES, ids=lambda e: e or "default")
def test_zero_resolution_finds_connected_components(engine, mode):
    components = connected_components(_GRAPH)
    assert np.unique(components).size == 20
    result = _run(_GRAPH, 0.0, engine, mode)
    assert _same_partition(result.assignments, components)


@pytest.mark.parametrize("mode", [Mode.SYNC, Mode.ASYNC], ids=lambda m: m.value)
@pytest.mark.parametrize("engine", _ENGINE_CASES, ids=lambda e: e or "default")
def test_edges_lighter_than_resolution_leave_singletons(engine, mode):
    graph = _LIGHT
    assert np.all(graph.node_weights == 1.0)
    assert 0.0 < graph.weights.min() and graph.weights.max() <= 0.5
    result = _run(graph, 0.6, engine, mode)
    assert result.num_clusters == graph.num_vertices
