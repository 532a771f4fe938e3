"""Clustering quality evaluation.

* :mod:`repro.eval.ground_truth` — average precision/recall against
  (overlapping) ground-truth communities, using the paper's
  largest-intersection matching (Section 4, following Tectonic's
  methodology);
* :mod:`repro.eval.ari` / :mod:`repro.eval.nmi` — Adjusted Rand Index and
  Normalized Mutual Information for disjoint label comparisons
  (Figures 15–16);
* :mod:`repro.eval.pr_curve` — resolution sweeps producing the paper's
  precision/recall curves (Figures 9, 10, 14).
"""

from repro.eval.ari import adjusted_rand_index
from repro.eval.ground_truth import average_precision_recall, match_communities
from repro.eval.nmi import normalized_mutual_information
from repro.eval.pr_curve import pr_curve, pr_dominates

__all__ = [
    "adjusted_rand_index",
    "average_precision_recall",
    "match_communities",
    "normalized_mutual_information",
    "pr_curve",
    "pr_dominates",
]
