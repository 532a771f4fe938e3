"""Quality against the LambdaCC LP relaxation on small graphs.

The LP relaxes a clustering to pair distances ``x_ij`` in ``[0, 1]``
(0: same cluster) under the triangle inequalities ``x_ij <= x_ik +
x_kj`` and maximises ``sum_{i<j} w'_ij (1 - x_ij)``, with ``w'_ij = w_ij
- lambda k_i k_j``.  Every clustering is a feasible 0/1 point, so the LP
value (plus the self-loop weight, which every clustering collects) bounds
the unordered objective ``F`` from above, and ``result.objective`` (the
ordered-pair ``2 F``) by twice that.  Where the two meet, the run is
certified optimal: on karate at the default config they do.  This takes
exact checks past the n <= 9 brute force of ``test_bruteforce_optimal``.
"""

import itertools

import numpy as np
import pytest

from repro.api import cluster
from repro.core.config import ClusteringConfig
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.graphs.builders import graph_from_edges
from repro.graphs.karate import karate_club_graph

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

TOL = 1e-6


def lp_bound(graph, resolution: float) -> float:
    """The LambdaCC LP optimum on the unordered ``F`` scale."""
    n = graph.num_vertices
    weights = np.zeros((n, n))
    src = np.repeat(np.arange(n), np.diff(graph.offsets))
    np.add.at(weights, (src, graph.neighbors), graph.weights)
    k = graph.node_weights
    rescaled = weights - resolution * np.outer(k, k)
    iu, ju = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.int64)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    c = rescaled[iu, ju]

    triples = np.array(list(itertools.combinations(range(n), 3)))
    ij = pair[triples[:, 0], triples[:, 1]]
    ik = pair[triples[:, 0], triples[:, 2]]
    jk = pair[triples[:, 1], triples[:, 2]]
    # Three rows per triple: each side at most the sum of the other two.
    count = len(triples)
    rows = np.repeat(np.arange(3 * count), 3)
    cols = np.stack([ij, ik, jk, ik, ij, jk, jk, ij, ik], axis=1).reshape(-1)
    vals = np.tile([1.0, -1.0, -1.0], 3 * count)
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(3 * count, iu.size))

    # Maximising sum c (1 - x) is minimising sum c x.
    res = optimize.linprog(
        c, A_ub=a_ub, b_ub=np.zeros(3 * count), bounds=(0, 1), method="highs"
    )
    assert res.status == 0, res.message
    return float(c.sum() - res.fun) + float(graph.self_loops.sum())


class TestLPBound:
    def test_bound_of_a_path_is_one_cluster(self):
        # The path 0-1-2 in one cluster: 2 (1 - lambda) - lambda; the
        # triangle inequality keeps x_02 <= x_01 + x_12 = 0.
        graph = graph_from_edges(np.array([[0, 1], [1, 2]]), num_vertices=3)
        assert lp_bound(graph, 0.25) == pytest.approx(1.25)

    def test_default_config_reaches_the_bound_on_karate(self):
        graph = karate_club_graph()
        result = cluster(graph, ClusteringConfig(resolution=0.05, seed=3))
        bound = lp_bound(graph, 0.05)
        assert abs(result.objective - 2.0 * bound) <= TOL, (
            result.objective, 2.0 * bound,
        )

    @pytest.mark.parametrize("resolution", [0.05, 0.2])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda seed: planted_partition_graph(
                40, size_min=6, size_max=14, seed=seed
            ).graph,
            lambda seed: lfr_like_graph(
                40, mixing=0.3, size_min=8, size_max=15, max_degree=12,
                seed=seed,
            ).graph,
        ],
        ids=["planted", "lfr"],
    )
    def test_objective_within_the_bound(self, make_graph, seed, resolution):
        graph = make_graph(seed)
        assert graph.num_vertices <= 40
        result = cluster(graph, ClusteringConfig(resolution=resolution, seed=3))
        bound = 2.0 * lp_bound(graph, resolution)
        assert result.objective <= bound + TOL, (
            f"objective {result.objective} above the LP bound {bound}"
        )
