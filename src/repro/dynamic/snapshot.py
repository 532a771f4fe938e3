"""Snapshot persistence for a live :class:`DynamicClusterer`.

Reuses the resilience checkpoint machinery (DESIGN.md §6): the same
``.npz`` container with a JSON ``meta`` header, the same atomic
write-fsync-rename protocol, the same corrupt-file normalization, and the
same exact-RNG-state capture — so a snapshot restores *bit-identically*:
assignments, cluster aggregates, the incremental objective terms, and the
RNG stream all resume exactly where the live session stopped.  The
round-trip acceptance test (save → process restart → restore → further
updates) relies on every one of those being exact, which is why the
cluster weight/size arrays are stored verbatim rather than recomputed
from assignments on load (``np.add.at`` summation order would only agree
to rounding).

:class:`SnapshotStore` rotates over the same two-slot helper as the
supervisor's checkpoints: a save never overwrites the newest good
snapshot, so a crash mid-save
leaves the previous generation intact and :meth:`SnapshotStore.load`
falls back to it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.errors import SnapshotError
from repro.resilience.checkpoint import (
    _CORRUPT_NPZ_ERRORS,
    SlotPair,
    _pack_graph,
    _unpack_graph,
    capture_rng,
    restore_rng,
)

PathLike = Union[str, Path]

#: Format version written into every snapshot (bump on layout changes).
SNAPSHOT_VERSION = 1

_STATE_ARRAYS = ("assignments", "cluster_weights", "cluster_sizes", "k2")


def save_snapshot(
    path: PathLike, clusterer: DynamicClusterer, generation: int = 0
) -> None:
    """Write the live clusterer state to ``path`` (atomic, one ``.npz``).

    ``generation`` is the :class:`SnapshotStore` rotation counter; plain
    file-level saves leave it at 0.
    """
    meta = {
        "version": SNAPSHOT_VERSION,
        "kind": "repro-dynamic-snapshot",
        "generation": int(generation),
        "config_tag": clusterer.config.config_tag(clusterer.resolution),
        "engine": clusterer.engine_name,
        "resolution": clusterer.resolution,
        "seed": clusterer.config.seed,
        "num_vertices": int(clusterer.graph.num_vertices),
        "intra": clusterer._intra,
        "penalty": clusterer._penalty,
        "rng_state": capture_rng(clusterer.rng),
        "counters": {
            "batches_applied": clusterer.batches_applied,
            "updates_applied": dict(clusterer.updates_applied),
            "moves_applied": clusterer.moves_applied,
            "escalations": clusterer.escalations,
        },
        "last_drift": clusterer.last_drift,
        "sim_seconds": clusterer.sim_seconds,
        "repairs": clusterer.graph.repairs,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    _pack_graph(arrays, "cur", clusterer.graph)
    arrays["assignments"] = clusterer.state.assignments
    arrays["cluster_weights"] = clusterer.state.cluster_weights
    arrays["cluster_sizes"] = clusterer.state.cluster_sizes
    arrays["k2"] = clusterer._k2
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    clusterer.mark_saved()


def read_snapshot_meta(path: PathLike) -> dict:
    """The snapshot's JSON header (validated), without the arrays."""
    try:
        data = np.load(path)
    except _CORRUPT_NPZ_ERRORS as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        if "meta" not in data:
            raise SnapshotError(f"{path} is not a repro snapshot (no meta)")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"{path}: corrupt snapshot header: {exc}") from exc
        if meta.get("kind") != "repro-dynamic-snapshot":
            raise SnapshotError(f"{path}: not a dynamic-clusterer snapshot")
        if meta.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path}: unsupported snapshot version {meta.get('version')!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        return meta
    finally:
        data.close()


def load_snapshot(
    path: PathLike,
    config: ClusteringConfig,
    engine: Optional[str] = None,
    supervisor=None,
    instrumentation=None,
    guard: Optional[DriftGuard] = None,
) -> DynamicClusterer:
    """Restore a :class:`DynamicClusterer` from a snapshot file.

    ``config`` must be compatible with the one that wrote the snapshot
    (same :meth:`~repro.core.config.ClusteringConfig.config_tag`); the
    engine defaults to the snapshot's own, since replay identity depends
    on running the same engine.  A ``config`` without a seed takes the
    snapshot's, so the restored session records the seed that drove it.
    """
    meta = read_snapshot_meta(path)
    expected = config.config_tag(float(config.resolution))
    if meta["config_tag"] != expected:
        raise SnapshotError(
            f"{path}: snapshot was written under config {meta['config_tag']!r}, "
            f"cannot restore under {expected!r}"
        )
    try:
        data = np.load(path)
    except _CORRUPT_NPZ_ERRORS as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        graph = _unpack_graph(data, "cur")
        try:
            arrays = {name: np.asarray(data[name]) for name in _STATE_ARRAYS}
        except KeyError as exc:
            raise SnapshotError(f"{path}: snapshot missing array {exc}") from None
    except SnapshotError:
        raise
    except _CORRUPT_NPZ_ERRORS as exc:
        raise SnapshotError(f"{path}: corrupt snapshot payload: {exc}") from exc
    finally:
        data.close()
    if meta.get("repairs") is not None:
        graph.repairs = dict(meta["repairs"])
    if config.seed is None and meta.get("seed") is not None:
        config = config.with_options(seed=int(meta["seed"]))
    clusterer = DynamicClusterer(
        graph,
        arrays["assignments"],
        config,
        engine=engine if engine is not None else meta.get("engine"),
        supervisor=supervisor,
        instrumentation=instrumentation,
        guard=guard,
    )
    # Restore the maintained aggregates verbatim: recomputing them would
    # only agree to rounding, breaking bit-identical resumption.
    clusterer.state.cluster_weights = arrays["cluster_weights"].astype(
        np.float64, copy=True
    )
    clusterer.state.cluster_sizes = arrays["cluster_sizes"].astype(
        np.int64, copy=True
    )
    clusterer._k2 = arrays["k2"].astype(np.float64, copy=True)
    clusterer._intra = float(meta["intra"])
    clusterer._penalty = float(meta["penalty"])
    try:
        restore_rng(clusterer.rng, meta.get("rng_state"))
    except Exception as exc:
        raise SnapshotError(f"{path}: cannot restore RNG state: {exc}") from exc
    counters = meta.get("counters", {})
    clusterer.batches_applied = int(counters.get("batches_applied", 0))
    clusterer.updates_applied.update(counters.get("updates_applied", {}))
    clusterer.moves_applied = int(counters.get("moves_applied", 0))
    clusterer.escalations = int(counters.get("escalations", 0))
    clusterer.last_drift = meta.get("last_drift")
    clusterer.sim_seconds = float(meta.get("sim_seconds", 0.0))
    return clusterer


class SnapshotStore:
    """Two-slot rotating snapshot directory (crash-safe saves).

    Saves alternate between ``snap-a.npz`` and ``snap-b.npz``
    (:class:`~repro.resilience.checkpoint.SlotPair`), always writing the
    slot that does *not* hold the newest good snapshot; a generation
    counter in the header identifies the latest.
    """

    def __init__(self, directory: PathLike) -> None:
        self.slots = SlotPair(directory, "snap")
        self.directory = self.slots.directory
        self.directory.mkdir(parents=True, exist_ok=True)

    def _good(self):
        """``(path, generation)`` of readable slots, newest first."""
        good = []
        for path in self.slots.paths:
            if path.exists():
                try:
                    meta = read_snapshot_meta(path)
                except SnapshotError:
                    continue
                good.append((path, int(meta.get("generation", 0))))
        return sorted(good, key=lambda item: -item[1])

    def latest(self) -> Optional[Path]:
        """Path of the newest good snapshot, or None."""
        good = self._good()
        return good[0][0] if good else None

    def save(self, clusterer: DynamicClusterer) -> Path:
        """Write a new generation into the elder (or empty/corrupt) slot."""
        good = self._good()
        newest, generation = good[0] if good else (None, 0)
        target = self.slots.other(newest)
        save_snapshot(target, clusterer, generation=generation + 1)
        return target

    def load(
        self,
        config: ClusteringConfig,
        engine: Optional[str] = None,
        supervisor=None,
        instrumentation=None,
        guard: Optional[DriftGuard] = None,
    ) -> DynamicClusterer:
        """Restore the newest good snapshot, falling back to the elder slot."""
        good = self._good()
        if not good:
            raise SnapshotError(f"no snapshot found in {self.directory}")
        last_error: Optional[SnapshotError] = None
        for path, _ in good:
            try:
                return load_snapshot(
                    path,
                    config,
                    engine=engine,
                    supervisor=supervisor,
                    instrumentation=instrumentation,
                    guard=guard,
                )
            except SnapshotError as exc:
                last_error = exc
        raise last_error  # type: ignore[misc]
