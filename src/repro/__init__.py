"""repro — reproduction of "Scalable Community Detection via Parallel
Correlation Clustering" (Shi, Dhulipala, Eisenstat, Łącki, Mirrokni;
VLDB 2021).

The package implements the paper's LambdaCC Louvain framework (sequential
and parallel, with the synchronous/asynchronous, frontier-restriction and
multi-level-refinement optimizations), every baseline it evaluates against
(KwikCluster, C4, ClusterWild!, dense-matrix LambdaCC, Tectonic, SCD, a
NetworKit-style PLM), the graph substrates (CSR graphs, rMAT and
planted-partition generators, k-NN graph construction), the evaluation
toolkit (average precision/recall against ground-truth communities, ARI,
NMI), and a simulated shared-memory parallel runtime that stands in for the
paper's 30/48-core machines (see DESIGN.md for the substitution argument).

Quickstart::

    from repro import correlation_clustering, karate_club_graph

    graph = karate_club_graph()
    result = correlation_clustering(graph, resolution=0.05, seed=1)
    print(result.num_clusters, result.objective)
"""

from repro.core.api import (
    cluster,
    correlation_clustering,
    modularity_clustering,
)
from repro.core.config import ClusteringConfig, Frontier, Mode, Objective
from repro.core.options import RunOptions
from repro.core.result import ClusterResult
from repro.graphs.builders import graph_from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.karate import karate_club_graph
from repro.parallel.scheduler import CostLedger, Machine, SimulatedScheduler
from repro.serving import GatewayPolicy, ServingGateway
from repro.supervisor import RunSupervisor

__version__ = "1.0.0"

#: The frozen top-level surface.  ``repro.api`` snapshots the signature
#: of every name here (plus its own additions) into
#: ``benchmarks/api_surface.json``; ``make api-check`` fails CI when the
#: surface drifts without the snapshot being regenerated deliberately.
__all__ = [
    "CSRGraph",
    "ClusterResult",
    "ClusteringConfig",
    "CostLedger",
    "Frontier",
    "GatewayPolicy",
    "Machine",
    "Mode",
    "Objective",
    "RunOptions",
    "RunSupervisor",
    "ServingGateway",
    "SimulatedScheduler",
    "cluster",
    "correlation_clustering",
    "graph_from_edges",
    "karate_club_graph",
    "modularity_clustering",
    "__version__",
]
