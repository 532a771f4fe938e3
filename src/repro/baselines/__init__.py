"""Baseline community-detection implementations the paper compares against.

* :mod:`repro.baselines.kwikcluster`    — sequential KwikCluster / Pivot
  (Ailon–Charikar–Newman);
* :mod:`repro.baselines.c4`             — C4, the serializable parallel
  KwikCluster of Pan et al.;
* :mod:`repro.baselines.clusterwild`    — ClusterWild!, the
  conflict-ignoring parallel pivot of Pan et al.;
* :mod:`repro.baselines.lambdacc_dense` — the dense-adjacency-matrix
  sequential Louvain standing in for Veldt et al.'s MATLAB LambdaCC;
* :mod:`repro.baselines.tectonic`       — Tectonic's triangle-conductance
  thresholding (Tsourakakis et al.);
* :mod:`repro.baselines.scd`            — SCD's WCC-based partitioning
  (Prat-Pérez et al.);
* :mod:`repro.baselines.plm`            — a NetworKit-style parallel
  Louvain modularity (asynchronous, num_iter = 32, non-work-efficient
  compression);
* :mod:`repro.baselines.triangles`      — the shared triangle-counting
  substrate.
"""

from repro.baselines.c4 import c4_cluster
from repro.baselines.clusterwild import clusterwild_cluster
from repro.baselines.kwikcluster import kwikcluster
from repro.baselines.lambdacc_dense import dense_lambdacc_cluster
from repro.baselines.plm import plm_cluster
from repro.baselines.scd import scd_cluster
from repro.baselines.tectonic import tectonic_cluster
from repro.baselines.triangles import edge_triangle_counts

__all__ = [
    "c4_cluster",
    "clusterwild_cluster",
    "dense_lambdacc_cluster",
    "edge_triangle_counts",
    "kwikcluster",
    "plm_cluster",
    "scd_cluster",
    "tectonic_cluster",
]
