"""Work-efficient parallel primitives (reduce, scan, pack, histogram).

Each primitive executes vectorized with numpy and charges the theoretical
(work, depth) of its parallel counterpart to the scheduler: linear work and
logarithmic depth, matching the ParlayLib/GBBS primitives the paper builds
on (Appendix B).  ``sched=None`` skips accounting.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


def _log2(n: int) -> float:
    """Depth helper: log2 clamped to at least 1 for tiny inputs."""
    return max(1.0, math.log2(max(n, 2)))


def parallel_reduce(values: np.ndarray, sched=None, label: str = "reduce") -> float:
    """Sum-reduce ``values``; work O(n), depth O(log n)."""
    values = np.asarray(values)
    total = float(values.sum())
    if sched is not None:
        sched.charge(work=float(values.size), depth=_log2(values.size), label=label)
    return total


def parallel_max(values: np.ndarray, sched=None, label: str = "max") -> float:
    """Max-reduce ``values``; work O(n), depth O(log n)."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("parallel_max of empty array")
    result = float(values.max())
    if sched is not None:
        sched.charge(work=float(values.size), depth=_log2(values.size), label=label)
    return result


def parallel_scan(
    values: np.ndarray, sched=None, label: str = "scan"
) -> Tuple[np.ndarray, float]:
    """Exclusive prefix sum; returns (prefix array, total).

    Work O(n), depth O(log n) — the classic two-phase Blelloch scan.
    """
    values = np.asarray(values)
    prefix = np.zeros(values.size, dtype=np.int64 if values.dtype.kind in "iu" else np.float64)
    if values.size:
        np.cumsum(values[:-1], out=prefix[1:])
    total = float(values.sum())
    if sched is not None:
        sched.charge(work=2.0 * values.size, depth=2.0 * _log2(values.size), label=label)
    return prefix, total


def parallel_pack(
    values: np.ndarray, flags: np.ndarray, sched=None, label: str = "pack"
) -> np.ndarray:
    """Keep ``values[i]`` where ``flags[i]`` is true (parallel filter).

    Work O(n), depth O(log n) via scan + scatter.
    """
    values = np.asarray(values)
    flags = np.asarray(flags, dtype=bool)
    if values.shape[0] != flags.shape[0]:
        raise ValueError(f"values ({values.shape[0]}) and flags ({flags.shape[0]}) differ")
    out = values[flags]
    if sched is not None:
        sched.charge(work=2.0 * values.shape[0], depth=2.0 * _log2(values.shape[0]), label=label)
    return out


def parallel_histogram(
    keys: np.ndarray,
    num_buckets: int,
    weights: Optional[np.ndarray] = None,
    sched=None,
    label: str = "histogram",
) -> np.ndarray:
    """Count (or weight-sum) keys into ``num_buckets`` buckets.

    Mirrors GBBS's parallel histogram: work O(n), depth O(log n) with
    per-worker local buffers merged by reduction.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and (keys.min() < 0 or keys.max() >= num_buckets):
        raise ValueError("keys out of range for histogram buckets")
    counts = np.bincount(keys, weights=weights, minlength=num_buckets)
    if sched is not None:
        sched.charge(
            work=float(keys.size + num_buckets),
            depth=_log2(max(keys.size, num_buckets)),
            label=label,
        )
    return counts


def ragged_gather_indices(
    offsets: np.ndarray,
    ids: np.ndarray,
    sched=None,
    label: str = "gather",
    *,
    lens: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the CSR rows ``ids`` into (edge_indices, row_of_edge).

    Given CSR ``offsets`` and a set of row ids, returns the concatenated
    positions of all their incident entries plus, aligned, the local row
    index (position within ``ids``) owning each entry.  This is the
    vectorized equivalent of a nested parallel-for over rows and their
    edges: work O(sum of degrees), depth O(log n).

    ``lens`` passes the rows' degrees when the caller already holds them.
    """
    ids = np.asarray(ids, dtype=np.int64)
    starts = offsets[ids]
    if lens is None:
        lens = offsets[ids + 1] - starts
    total = int(lens.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    row_of_edge = np.repeat(np.arange(ids.size, dtype=np.int64), lens)
    # ragged arange: entry e of row r is starts[r] + (e - first[r]), where
    # first[r] is the row's first flat position, so the per-row shift
    # ``starts - first`` repeated over the row plus the flat iota gives
    # them all.
    shift = np.empty(ids.size, dtype=np.int64)
    shift[0] = 0
    np.cumsum(lens[:-1], out=shift[1:])
    np.subtract(starts, shift, out=shift)
    edge_indices = np.repeat(shift, lens)
    edge_indices += np.arange(total, dtype=np.int64)
    if sched is not None:
        sched.charge(work=float(total + ids.size), depth=_log2(total), label=label)
    return edge_indices, row_of_edge
