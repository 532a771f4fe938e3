"""Atomic-update contention accounting.

The paper's asynchronous setting replaces locks with separate atomic
operations: one CAS to update a vertex's cluster id and fetch-and-adds on
the source and destination clusters' total vertex weights (Section 3.2.1).
When many vertices move into the same cluster within one concurrency
window, those fetch-and-adds queue on a single cache line — the effect the
paper identifies as the cause of poor PAR-MOD scaling on twitter
(Appendix C: average cluster size up to 2.08e7).

This module computes, for a window of concurrent updates, the retries and
longest queue that :meth:`SimulatedScheduler.charge_cas_contention`
charges.  :func:`atomic_add_window` is the NumPy path; the default commit
(``ClusterState.apply_moves``) applies its windows in C and gets the same
two integers from there, then charges them through
:func:`charge_atomic_window` exactly as this path does.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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


def charge_atomic_window(
    sched, size: int, total_retries: int, max_queue: int, label: str
) -> None:
    """Charge one window of ``size`` concurrent fetch-and-adds.

    In order: the updates' work, their CAS attempts (instrumentation),
    the contention of ``total_retries`` retries queued at most
    ``max_queue`` deep, and any CAS failures the fault plan injects.
    """
    sched.charge(work=float(size), depth=1.0, label=label, items=int(size))
    instr = getattr(sched, "instr", None)
    if instr is not None and instr.enabled:
        # Every update in the window issues one atomic RMW; retries on
        # top of these are counted by charge_cas_contention below.
        from repro.obs.instrument import M_CAS_ATTEMPTS

        instr.count(M_CAS_ATTEMPTS, float(size), site=label)
    sched.charge_cas_contention(
        total_retries, max_queue, label=label + "-contention"
    )
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


def atomic_add_window(
    values: np.ndarray,
    targets: np.ndarray,
    deltas: np.ndarray,
    sched=None,
    label: str = "atomic-add",
) -> None:
    """Apply one window of concurrent ``values[targets] += deltas`` updates.

    The updates are applied exactly (fetch-and-add never loses increments);
    what contention costs is *time*, which is charged to ``sched``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=values.dtype)
    if targets.shape != deltas.shape:
        raise ValueError(
            f"targets {targets.shape} and deltas {deltas.shape} must match"
        )
    np.add.at(values, targets, deltas)
    if sched is not None:
        queues, max_queue = contention_profile(targets)
        charge_atomic_window(
            sched, targets.size, targets.size - queues.size, max_queue, label
        )
