"""Input-repair provenance must survive every graph derivation.

``read_edge_list(..., on_malformed="repair")`` attaches ``graph.repairs``;
a run on any graph derived from it — quotients, weight views, delta
compactions — must still report ``stats_dict()["input_repairs"]``.
"""

import numpy as np
import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.graphs.karate import karate_club_graph
from repro.graphs.quotient import compress_graph, compress_graph_naive

REPAIRS = {"bad_weight": 2, "self_loop": 1}


@pytest.fixture
def repaired_karate():
    graph = karate_club_graph()
    graph.repairs = dict(REPAIRS)
    return graph


@pytest.mark.parametrize("compress", [compress_graph, compress_graph_naive])
def test_quotient(repaired_karate, compress):
    assignments = np.arange(34, dtype=np.int64) % 5
    compressed, _ = compress(repaired_karate, assignments)
    assert compressed.repairs == REPAIRS


def test_quotient_edgeless(repaired_karate):
    # All-in-one-cluster quotient has no inter-cluster edges left.
    compressed, _ = compress_graph(repaired_karate, np.zeros(34, np.int64))
    assert compressed.num_directed_edges == 0
    assert compressed.repairs == REPAIRS


def test_weight_views(repaired_karate):
    assert repaired_karate.with_unit_weights().repairs == REPAIRS
    assert (
        repaired_karate.with_node_weights(np.ones(34)).repairs == REPAIRS
    )


def test_clean_graphs_stay_clean():
    graph = karate_club_graph()
    compressed, _ = compress_graph(graph, np.arange(34, dtype=np.int64) % 5)
    assert compressed.repairs is None
    assert graph.with_unit_weights().repairs is None


def test_multilevel_run_reports_repairs(repaired_karate):
    """The end-to-end guarantee: a coarsening run still reports them."""
    result = cluster(
        repaired_karate, ClusteringConfig(resolution=0.1, seed=1)
    )
    assert result.stats_dict()["input_repairs"] == REPAIRS

