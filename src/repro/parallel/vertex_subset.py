"""Vertex subsets with sparse/dense dual representation (GBBS vertexSubset).

GBBS's EDGEMAP "switches between a sparse and a dense representation of the
subset depending on size" (Appendix B).  A :class:`VertexSubset` stores
either the member ids (sparse) or a boolean mask over all vertices (dense)
and converts lazily; :func:`should_densify` implements the standard
Ligra/GBBS switching rule.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Ligra's dense-direction threshold: go dense when the frontier plus its
#: out-degree sum exceeds |E| / DENSE_FRACTION.
DENSE_FRACTION = 20


def should_densify(frontier_size: int, frontier_degree_sum: int, num_edges: int) -> bool:
    """Ligra/GBBS direction heuristic for EDGEMAP."""
    return (frontier_size + frontier_degree_sum) > max(1, num_edges // DENSE_FRACTION)


def observe_dedup(sched, gathered: int, distinct: int) -> None:
    """Observe the EDGEMAP dedup of ``gathered`` ids down to ``distinct``.

    Counts the duplicates removed and observes their fraction when
    ``sched`` carries enabled instrumentation and ``gathered > 0``
    (observe-only; the dedup's cost is charged by callers).
    """
    if sched is None or not gathered:
        return
    instr = getattr(sched, "instr", None)
    if instr is not None and instr.enabled:
        from repro.obs.instrument import M_DEDUP_HITS, M_DEDUP_RATE

        hits = int(gathered - distinct)
        if hits:
            instr.count(M_DEDUP_HITS, float(hits))
        instr.observe(M_DEDUP_RATE, hits / gathered)


class VertexSubset:
    """A subset of ``[0, n)`` with sparse ids or a dense membership mask."""

    def __init__(
        self,
        n: int,
        ids: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        if (ids is None) == (mask is None):
            raise ValueError("provide exactly one of ids= or mask=")
        self.n = int(n)
        self._ids = None if ids is None else np.asarray(ids, dtype=np.int64)
        self._mask = None if mask is None else np.asarray(mask, dtype=bool)
        if self._mask is not None and self._mask.shape != (self.n,):
            raise ValueError(f"mask shape {self._mask.shape} != ({self.n},)")
        if self._ids is not None and self._ids.size:
            if self._ids.min() < 0 or self._ids.max() >= self.n:
                raise ValueError("vertex ids out of range")

    @staticmethod
    def empty(n: int) -> "VertexSubset":
        return VertexSubset(n, ids=np.zeros(0, dtype=np.int64))

    @staticmethod
    def full(n: int) -> "VertexSubset":
        return VertexSubset(n, mask=np.ones(n, dtype=bool))

    @staticmethod
    def from_ids(n: int, ids: np.ndarray, sched=None) -> "VertexSubset":
        """Sparse subset from (possibly unsorted, possibly duplicated) ids.

        The duplicates removed here are the EDGEMAP dedup hits; see
        :func:`observe_dedup`.
        """
        raw = np.asarray(ids, dtype=np.int64)
        # np.unique's result by sort and adjacent compare: NumPy 2's
        # hash-based np.unique takes ~20x longer on a 25k-id frontier.
        unique = np.sort(raw)
        if unique.size > 1:
            unique = unique[np.concatenate(([True], unique[1:] != unique[:-1]))]
        observe_dedup(sched, raw.size, unique.size)
        return VertexSubset(n, ids=unique)

    @property
    def is_dense(self) -> bool:
        return self._mask is not None

    def __len__(self) -> int:
        if self._ids is not None:
            return int(self._ids.size)
        return int(self._mask.sum())

    def __contains__(self, v: int) -> bool:
        if self._mask is not None:
            return bool(self._mask[v])
        return bool(np.any(self._ids == v))

    def ids(self) -> np.ndarray:
        """Sorted member ids (computes from the mask when dense)."""
        if self._ids is None:
            self._ids = np.flatnonzero(self._mask).astype(np.int64)
        return self._ids

    def mask(self) -> np.ndarray:
        """Dense boolean membership mask (computes from ids when sparse)."""
        if self._mask is None:
            self._mask = np.zeros(self.n, dtype=bool)
            self._mask[self._ids] = True
        return self._mask

    def union(self, other: "VertexSubset") -> "VertexSubset":
        if self.n != other.n:
            raise ValueError("subsets over different vertex ranges")
        if self.is_dense or other.is_dense:
            return VertexSubset(self.n, mask=self.mask() | other.mask())
        merged = np.union1d(self.ids(), other.ids())
        return VertexSubset(self.n, ids=merged)
