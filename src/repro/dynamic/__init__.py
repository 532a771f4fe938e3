"""Dynamic clustering: incremental edge updates over a live partition.

Public surface (DESIGN.md §11):

* :class:`~repro.dynamic.updates.EdgeUpdate` /
  :class:`~repro.dynamic.updates.UpdateBatch` — validated edge
  insert/delete/reweight operations and their JSONL log format;
* :class:`~repro.dynamic.clusterer.DynamicClusterer` — the serving
  facade: ``apply(batch)`` with localized refinement and ``stats``
  over the live ``state``, plus the :class:`DriftGuard` escalation
  policy;
* :class:`~repro.dynamic.snapshot.SnapshotStore` — two-slot rotating
  ``.npz`` persistence of live state (bit-identical resumption).

Clients reach a live clusterer through the serving gateway
(:mod:`repro.serving`), the one serving front.
"""

from repro.dynamic.clusterer import DriftGuard, DynamicClusterer, UpdateReport
from repro.dynamic.snapshot import (
    SnapshotStore,
    load_snapshot,
    read_snapshot_meta,
    save_snapshot,
)
from repro.dynamic.updates import (
    EdgeUpdate,
    UpdateBatch,
    batched,
    read_update_log,
    write_update_log,
)

__all__ = [
    "DriftGuard",
    "DynamicClusterer",
    "EdgeUpdate",
    "SnapshotStore",
    "UpdateBatch",
    "UpdateReport",
    "batched",
    "load_snapshot",
    "read_snapshot_meta",
    "read_update_log",
    "save_snapshot",
    "write_update_log",
]
