"""Work-efficient parallel primitives: the ragged CSR gather.

Each primitive executes vectorized with numpy and charges the theoretical
(work, depth) of its parallel counterpart to the scheduler, matching the
ParlayLib/GBBS primitives the paper builds on (Appendix B), with
:func:`log2_depth` as the logarithmic depth term every simulated
primitive shares.  ``sched=None`` skips accounting.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


def log2_depth(n: int) -> float:
    """Depth helper: log2 clamped to at least 1 for tiny inputs."""
    return max(1.0, math.log2(max(n, 2)))


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
        sched.charge(work=float(total + ids.size), depth=log2_depth(total), label=label)
    return edge_indices, row_of_edge
