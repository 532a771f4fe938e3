"""Edge-update batches and the JSONL update-log format.

An :class:`EdgeUpdate` is one of three operations on an undirected edge:

* ``insert``   — add ``weight`` to the edge (creating it if absent);
* ``delete``   — remove the edge (an error if absent);
* ``reweight`` — set the edge's weight to ``weight`` (an error if absent;
  reweighting to ``0`` is a delete, reweighting to the current weight is
  a no-op).

Self-loop updates are rejected: LambdaCC self-loops are a compression
artifact (intra-cluster mass), not an input surface.  Vertex ids beyond
the current graph grow it — new vertices join as singletons with unit
LambdaCC weight.

The on-disk log is JSONL, one update per line::

    {"op": "insert", "u": 3, "v": 17, "weight": 1.0}
    {"op": "delete", "u": 3, "v": 17}

``repro update --updates log.jsonl`` replays such a log against a
snapshot or freshly clustered graph in batches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import UpdateError

PathLike = Union[str, Path]

#: The three recognized operations.
OPS = ("insert", "delete", "reweight")


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge operation (validated on construction)."""

    op: str
    u: int
    v: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise UpdateError(f"unknown update op {self.op!r}; expected one of {OPS}")
        if self.u < 0 or self.v < 0:
            raise UpdateError(f"negative vertex id in update ({self.u}, {self.v})")
        if self.u == self.v:
            raise UpdateError(f"self-loop update on vertex {self.u} is not allowed")
        if not math.isfinite(self.weight):
            raise UpdateError(
                f"non-finite weight {self.weight!r} in {self.op} ({self.u}, {self.v})"
            )
        if self.op == "delete" and self.weight != 1.0:
            object.__setattr__(self, "weight", 1.0)

    @property
    def key(self) -> Tuple[int, int]:
        """Canonical ``(min, max)`` endpoint pair."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def weight_after(self, current: float) -> float:
        """The edge's weight once this update lands on weight ``current``.

        The one validation rule for updates against live state: a delete
        or reweight of an absent edge (``current == 0``) raises
        :class:`~repro.errors.UpdateError`.
        """
        if self.op == "insert":
            return current + self.weight
        if current == 0.0:
            if self.op == "delete":
                raise UpdateError(f"cannot delete absent edge ({self.u}, {self.v})")
            raise UpdateError(
                f"cannot reweight absent edge ({self.u}, {self.v}); use an insert"
            )
        return 0.0 if self.op == "delete" else self.weight

    def as_dict(self) -> dict:
        payload = {"op": self.op, "u": int(self.u), "v": int(self.v)}
        if self.op != "delete":
            payload["weight"] = float(self.weight)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EdgeUpdate":
        if not isinstance(payload, dict):
            raise UpdateError(f"update must be a JSON object, got {type(payload).__name__}")
        try:
            op = payload["op"]
            u = int(payload["u"])
            v = int(payload["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UpdateError(f"malformed update {payload!r}: {exc}") from None
        weight = payload.get("weight", 1.0)
        if not isinstance(weight, (int, float)):
            raise UpdateError(f"malformed update weight {weight!r}")
        return cls(op=str(op), u=u, v=v, weight=float(weight))


class UpdateBatch:
    """An ordered sequence of :class:`EdgeUpdate` applied atomically.

    "Atomically" in the dynamic-clusterer sense: all updates in the batch
    are staged onto the graph, then *one* localized refinement runs over
    the combined seed frontier (DESIGN.md §11).  Order matters within a
    batch — e.g. ``insert`` then ``delete`` of the same edge cancels out.
    """

    __slots__ = ("updates",)

    def __init__(self, updates: Iterable[EdgeUpdate] = ()) -> None:
        self.updates: List[EdgeUpdate] = list(updates)
        for upd in self.updates:
            if not isinstance(upd, EdgeUpdate):
                raise UpdateError(f"not an EdgeUpdate: {upd!r}")

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self.updates)

    def __repr__(self) -> str:
        counts = self.op_counts()
        parts = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        return f"UpdateBatch({len(self.updates)} updates: {parts or 'empty'})"

    def op_counts(self) -> dict:
        counts = {op: 0 for op in OPS}
        for upd in self.updates:
            counts[upd.op] += 1
        return counts

    def touched_vertices(self) -> np.ndarray:
        """Unique endpoints of every updated edge (the frontier seed)."""
        if not self.updates:
            return np.zeros(0, dtype=np.int64)
        flat = np.fromiter(
            (x for upd in self.updates for x in (upd.u, upd.v)),
            dtype=np.int64,
            count=2 * len(self.updates),
        )
        return np.unique(flat)

    @property
    def max_vertex(self) -> int:
        """Largest vertex id referenced (-1 for an empty batch)."""
        return max((max(upd.u, upd.v) for upd in self.updates), default=-1)

    # -- convenience constructors ------------------------------------- #

    @classmethod
    def inserts(
        cls, edges: Sequence[Tuple[int, int]], weight: float = 1.0
    ) -> "UpdateBatch":
        return cls(EdgeUpdate("insert", int(u), int(v), weight) for u, v in edges)

    @classmethod
    def deletes(cls, edges: Sequence[Tuple[int, int]]) -> "UpdateBatch":
        return cls(EdgeUpdate("delete", int(u), int(v)) for u, v in edges)


# ---------------------------------------------------------------------- #
# JSONL update logs
# ---------------------------------------------------------------------- #


def read_update_log(path: PathLike) -> List[EdgeUpdate]:
    """Parse a JSONL update log (blank lines and ``#`` comments skipped)."""
    updates: List[EdgeUpdate] = []
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise UpdateError(f"cannot read update log {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UpdateError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        try:
            updates.append(EdgeUpdate.from_dict(payload))
        except UpdateError as exc:
            raise UpdateError(f"{path}:{lineno}: {exc}") from None
    return updates


def write_update_log(path: PathLike, updates: Iterable[EdgeUpdate]) -> None:
    """Write updates as one JSON object per line."""
    with open(path, "w") as handle:
        for upd in updates:
            handle.write(json.dumps(upd.as_dict()) + "\n")


def batched(updates: Sequence[EdgeUpdate], batch_size: int) -> List[UpdateBatch]:
    """Chunk an update stream into :class:`UpdateBatch` groups in order."""
    if batch_size <= 0:
        raise UpdateError(f"batch_size must be positive, got {batch_size}")
    return [
        UpdateBatch(updates[i : i + batch_size])
        for i in range(0, len(updates), batch_size)
    ]
