"""Atomic-update contention accounting.

The paper's asynchronous setting replaces locks with separate atomic
operations: one CAS to update a vertex's cluster id and fetch-and-adds on
the source and destination clusters' total vertex weights (Section 3.2.1).
When many vertices move into the same cluster within one concurrency
window, those fetch-and-adds queue on a single cache line — the effect the
paper identifies as the cause of poor PAR-MOD scaling on twitter
(Appendix C: average cluster size up to 2.08e7).

This module computes, for a window of concurrent updates, the retries and
longest queue, and :func:`fetch_add_costs` turns them into the window's
regions.  :func:`atomic_add_window` applies and charges one window: the
commit of ``ClusterState.apply_moves`` and of ``FaultyClusterState``.  A
BEST-MOVES round run in C gets the same two integers for every window at
once and builds all its windows' regions with the same
:func:`fetch_add_costs`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.obs.instrument import M_ATOMIC_QUEUE, M_CAS_ATTEMPTS, M_CAS_RETRIES
from repro.parallel.scheduler import contention_cost


def contention_profile(targets: np.ndarray) -> Tuple[np.ndarray, int]:
    """Queue lengths for a window of concurrent atomic updates.

    Parameters
    ----------
    targets:
        Integer array; ``targets[i]`` is the memory location (cluster id)
        the ``i``-th concurrent update hits.

    Returns
    -------
    (queue_lengths, max_queue):
        ``queue_lengths`` holds the number of concurrent updates per
        distinct contended location (length = number of distinct targets);
        ``max_queue`` is its maximum (0 for an empty window).
    """
    targets = np.asarray(targets)
    if targets.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    if targets.ndim != 1:
        raise ValueError(f"targets must be 1-D, got shape {targets.shape}")
    _, counts = np.unique(targets, return_counts=True)
    return counts.astype(np.int64), int(counts.max())


def fetch_add_costs(size, retries, longest):
    """The regions of concurrent fetch-and-add windows, each as
    ``(work, depth, serial)``: ``size`` updates at one op each and
    depth 1, then the contention of ``retries`` retries queued at most
    ``longest`` deep (:func:`~repro.parallel.scheduler.contention_cost`),
    which is charged only where ``retries > 0``.  The arguments are one
    window's integers or per-window arrays."""
    work, serial = contention_cost(retries, longest)
    return (size, 1.0, 0.0), (work, 0.0, serial)


def record_fetch_add(
    instr, size: int, retries: int, longest: int, label: str
) -> None:
    """A fetch-and-add window's metrics: one CAS attempt per update, and,
    where it retried, its retries and longest queue."""
    instr.count(M_CAS_ATTEMPTS, float(size), site=label)
    if retries:
        instr.count(M_CAS_RETRIES, float(retries))
        instr.observe(M_ATOMIC_QUEUE, float(longest))


def atomic_add_window(
    values: np.ndarray,
    targets: np.ndarray,
    deltas: np.ndarray,
    sched=None,
    label: str = "atomic-add",
) -> None:
    """Apply one window of concurrent ``values[targets] += deltas`` updates.

    The updates are applied exactly (fetch-and-add never loses increments);
    what contention costs is *time*, which is charged to ``sched``.  In
    order: the window's :func:`fetch_add_costs` regions (``label`` and,
    where it retried, ``label-contention``), its metrics
    (instrumentation) and any CAS failures the fault plan injects.
    """
    targets = np.asarray(targets, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=values.dtype)
    if targets.shape != deltas.shape:
        raise ValueError(
            f"targets {targets.shape} and deltas {deltas.shape} must match"
        )
    np.add.at(values, targets, deltas)
    if sched is None:
        return
    size = targets.size
    queues, max_queue = contention_profile(targets)
    retries = size - queues.size
    updates, contention = fetch_add_costs(size, retries, max_queue)
    work, depth, serial = updates
    sched.charge(work=float(work), depth=depth, label=label, serial=serial)
    if retries > 0:
        work, depth, serial = contention
        sched.charge(
            work=work, depth=depth, label=label + "-contention", serial=serial
        )
    instr = getattr(sched, "instr", None)
    if instr is not None and instr.enabled:
        record_fetch_add(instr, size, retries, max_queue, label)
    faults = getattr(sched, "faults", None)
    if faults is not None:
        # Injected CAS failures: each failed update retries once more,
        # paying an extra contended-RMW round trip.  Values stay exact
        # (fetch-and-add never loses increments); the hazard is time.
        failures = faults.cas_failures(size)
        if failures:
            sched.charge_cas_contention(
                failures, failures + 1, label=label + "-injected-cas"
            )
