"""Checkpoint/resume for the multilevel recursion.

A checkpoint captures everything needed to resume a multilevel run
*bit-identically*: the position in the hierarchy (next level index), the
current coarsened graph, every retained ``(level graph, vertex-to-super)``
pair (needed for flatten/refine on the unwind), the per-level stats so
far, and the exact numpy RNG state (so subsequent frontier permutations
replay identically).  Everything is packed into one ``.npz`` file: arrays
natively, scalars and the RNG state as a JSON header.

Checkpoints are written at level boundaries (after PARALLEL-COMPRESS, the
natural consistency point: the clustering of the finished level is frozen
into the vertex-to-super map).  Loading validates a config tag so a
checkpoint cannot silently resume under a different configuration.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.louvain_par import LevelStats, MultiLevelStats
from repro.errors import CheckpointError
from repro.graphs.csr import CSRGraph

PathLike = Union[str, Path]

#: Format version written into every checkpoint (bump on layout changes).
CHECKPOINT_VERSION = 1

_GRAPH_FIELDS = (
    "offsets",
    "neighbors",
    "weights",
    "self_loops",
    "node_weights",
    "node_weight_sq",
)


@dataclass
class MultilevelCheckpoint:
    """Resumable snapshot of a multilevel run at a level boundary."""

    #: Index of the next level to run BEST-MOVES on.
    level: int
    #: The coarsened graph at that level.
    current: CSRGraph
    #: ``(level graph, vertex_to_super)`` per finished level, finest first.
    retained: List[Tuple[CSRGraph, np.ndarray]]
    #: ``numpy`` bit-generator state dict (``None`` for rng-free runs).
    rng_state: Optional[dict]
    #: Per-level diagnostics accumulated so far.
    stats: MultiLevelStats
    #: Guard against resuming under a different configuration.
    config_tag: str
    #: Original input size (second resume guard).
    num_vertices: int
    #: Cumulative moves/rounds so far (budget guards resume mid-count).
    total_moves: int = 0
    total_rounds: int = 0
    #: The run's concrete seed (``None`` in checkpoints that predate it).
    seed: Optional[int] = None


def _pack_graph(out: dict, prefix: str, graph: CSRGraph) -> None:
    for name in _GRAPH_FIELDS:
        out[f"{prefix}_{name}"] = getattr(graph, name)


def _unpack_graph(data, prefix: str) -> CSRGraph:
    try:
        arrays = {name: data[f"{prefix}_{name}"] for name in _GRAPH_FIELDS}
    except KeyError as exc:
        raise CheckpointError(f"checkpoint missing graph array {exc}") from None
    return CSRGraph(
        arrays["offsets"],
        arrays["neighbors"],
        arrays["weights"],
        self_loops=arrays["self_loops"],
        node_weights=arrays["node_weights"],
        node_weight_sq=arrays["node_weight_sq"],
        validate=False,
    )


def _stats_to_json(stats: MultiLevelStats) -> list:
    return [
        {
            "num_vertices": lv.num_vertices,
            "num_edges": lv.num_edges,
            "iterations": lv.iterations,
            "moves": lv.moves,
            "frontier_sizes": [int(x) for x in lv.frontier_sizes],
            "refine_iterations": lv.refine_iterations,
            "refine_moves": lv.refine_moves,
            "wall_seconds": lv.wall_seconds,
            "refine_wall_seconds": lv.refine_wall_seconds,
        }
        for lv in stats.levels
    ]


def _stats_from_json(payload: list) -> MultiLevelStats:
    stats = MultiLevelStats()
    for entry in payload:
        stats.levels.append(LevelStats(**entry))
    return stats


#: Everything a truncated/corrupt ``.npz`` can raise out of ``np.load``
#: or a lazy member extraction — normalized to :class:`CheckpointError`
#: so callers (and the supervisor's fall-back-to-previous-checkpoint
#: path) never have to know zipfile/zlib/numpy internals.
_CORRUPT_NPZ_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    struct.error,
    zipfile.BadZipFile,
    zlib.error,
)


def save_checkpoint(path: PathLike, ckpt: MultilevelCheckpoint) -> None:
    """Write ``ckpt`` to ``path`` as one compressed ``.npz`` file.

    The write is atomic (temp file in the same directory, fsync, then
    rename), so a run killed mid-checkpoint can never leave a torn file
    where the previous good checkpoint used to be.  The file lands at
    exactly ``path`` (no implicit ``.npz`` suffixing).
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "level": ckpt.level,
        "num_retained": len(ckpt.retained),
        "rng_state": ckpt.rng_state,
        "stats": _stats_to_json(ckpt.stats),
        "config_tag": ckpt.config_tag,
        "num_vertices": ckpt.num_vertices,
        "total_moves": ckpt.total_moves,
        "total_rounds": ckpt.total_rounds,
        "seed": ckpt.seed,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    _pack_graph(arrays, "cur", ckpt.current)
    for idx, (graph, v2s) in enumerate(ckpt.retained):
        _pack_graph(arrays, f"r{idx}", graph)
        arrays[f"r{idx}_v2s"] = np.asarray(v2s, dtype=np.int64)
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


def _checkpoint_meta(data, path: PathLike) -> dict:
    """The validated JSON header of an opened checkpoint."""
    if "meta" not in data:
        raise CheckpointError(f"{path} is not a repro checkpoint (no meta)")
    try:
        meta = json.loads(bytes(data["meta"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from exc
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return meta


def checkpoint_seed(path: PathLike) -> Optional[int]:
    """The seed a checkpoint was written under, read from its header.

    ``None`` when the file records none or cannot be read; resuming from
    an unreadable file raises later, with the full diagnosis.
    """
    try:
        with np.load(path) as data:
            return _checkpoint_meta(data, path).get("seed")
    except (CheckpointError, *_CORRUPT_NPZ_ERRORS):
        return None


def load_checkpoint(
    path: PathLike,
    config_tag: Optional[str] = None,
    num_vertices: Optional[int] = None,
) -> MultilevelCheckpoint:
    """Load a checkpoint, validating format and (optionally) the config.

    Raises :class:`~repro.errors.CheckpointError` on a missing/corrupt
    file, an unknown version, or a config/graph mismatch.  "Corrupt"
    includes a truncated zip (killed mid-write by a pre-atomic writer) and
    torn compressed members — the underlying ``zipfile``/``zlib``/numpy
    exceptions are never allowed to leak, so the supervisor can uniformly
    fall back to the previous checkpoint on any :class:`CheckpointError`.
    """
    try:
        data = np.load(path)
    except _CORRUPT_NPZ_ERRORS as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        meta = _checkpoint_meta(data, path)
        if config_tag is not None and meta["config_tag"] != config_tag:
            raise CheckpointError(
                f"{path}: checkpoint was written under config "
                f"{meta['config_tag']!r}, cannot resume under {config_tag!r}"
            )
        if num_vertices is not None and meta["num_vertices"] != num_vertices:
            raise CheckpointError(
                f"{path}: checkpoint graph has {meta['num_vertices']} vertices, "
                f"input has {num_vertices}"
            )
        current = _unpack_graph(data, "cur")
        retained: List[Tuple[CSRGraph, np.ndarray]] = []
        for idx in range(int(meta["num_retained"])):
            graph = _unpack_graph(data, f"r{idx}")
            try:
                v2s = np.asarray(data[f"r{idx}_v2s"], dtype=np.int64)
            except KeyError:
                raise CheckpointError(
                    f"{path}: checkpoint missing v2s map for level {idx}"
                ) from None
            retained.append((graph, v2s))
        return MultilevelCheckpoint(
            level=int(meta["level"]),
            current=current,
            retained=retained,
            rng_state=meta.get("rng_state"),
            stats=_stats_from_json(meta.get("stats", [])),
            config_tag=str(meta["config_tag"]),
            num_vertices=int(meta["num_vertices"]),
            total_moves=int(meta.get("total_moves", 0)),
            total_rounds=int(meta.get("total_rounds", 0)),
            seed=meta.get("seed"),
        )
    except CheckpointError:
        raise
    except _CORRUPT_NPZ_ERRORS as exc:
        # npz members decompress lazily: torn compressed data can surface
        # on extraction even when the archive directory parsed fine.
        raise CheckpointError(
            f"{path}: corrupt checkpoint payload: {exc}"
        ) from exc
    finally:
        data.close()


def restore_rng(rng: Optional[np.random.Generator], rng_state: Optional[dict]) -> None:
    """Restore a generator's exact bit-generator state from a checkpoint."""
    if rng is None or rng_state is None:
        return
    saved_kind = rng_state.get("bit_generator")
    current_kind = type(rng.bit_generator).__name__
    if saved_kind != current_kind:
        raise CheckpointError(
            f"checkpoint RNG is {saved_kind!r}, run uses {current_kind!r}"
        )
    rng.bit_generator.state = rng_state


def capture_rng(rng: Optional[np.random.Generator]) -> Optional[dict]:
    """The generator's bit-generator state as a JSON-serializable dict."""
    if rng is None:
        return None
    return rng.bit_generator.state


class SlotPair:
    """Two alternating ``.npz`` slots in one directory (crash-safe rotation).

    A writer targets the slot other than the one it last trusted, so a
    torn write leaves the previous generation intact.  Which slot that is
    stays the caller's record: :class:`~repro.dynamic.snapshot.SnapshotStore`
    reads a generation counter from each file's header, the supervisor's
    :class:`~repro.supervisor.supervisor.CheckpointRotation` alternates
    per attempt and tracks which attempts rewrote their slot.
    """

    def __init__(self, directory: PathLike, stem: str) -> None:
        self.directory = Path(directory)
        self.paths = (
            self.directory / f"{stem}-a.npz",
            self.directory / f"{stem}-b.npz",
        )

    def other(self, path: Optional[Path]) -> Path:
        """The slot to write next: the one not holding ``path`` (``a`` if None)."""
        return self.paths[1] if path == self.paths[0] else self.paths[0]
