"""Checkpoint serialization: round-trip fidelity and load validation."""

import json

import numpy as np
import pytest

from repro.core.louvain_par import LevelStats, MultiLevelStats
from repro.errors import CheckpointError
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    MultilevelCheckpoint,
    capture_rng,
    checkpoint_seed,
    load_checkpoint,
    restore_rng,
    save_checkpoint,
)


@pytest.fixture
def ckpt(karate):
    stats = MultiLevelStats()
    stats.levels.append(
        LevelStats(
            num_vertices=karate.num_vertices,
            num_edges=karate.num_edges,
            iterations=3,
            moves=20,
            frontier_sizes=[34, 12, 0],
        )
    )
    v2s = np.arange(karate.num_vertices, dtype=np.int64) % 5
    return MultilevelCheckpoint(
        level=1,
        current=karate,
        retained=[(karate, v2s)],
        rng_state=capture_rng(np.random.default_rng(123)),
        stats=stats,
        config_tag="mode=parallel|lambda=0.05",
        num_vertices=karate.num_vertices,
        total_moves=20,
        total_rounds=3,
        seed=4242,
    )


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path, config_tag=ckpt.config_tag)
        assert loaded.level == ckpt.level
        assert loaded.config_tag == ckpt.config_tag
        assert loaded.num_vertices == ckpt.num_vertices
        assert loaded.total_moves == 20 and loaded.total_rounds == 3
        assert np.array_equal(loaded.current.offsets, ckpt.current.offsets)
        assert np.array_equal(loaded.current.neighbors, ckpt.current.neighbors)
        assert np.allclose(loaded.current.weights, ckpt.current.weights)
        assert len(loaded.retained) == 1
        assert np.array_equal(loaded.retained[0][1], ckpt.retained[0][1])
        assert loaded.stats.levels[0].moves == 20
        assert loaded.stats.levels[0].frontier_sizes == [34, 12, 0]
        assert loaded.seed == 4242

    def test_checkpoint_seed_reads_the_header(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        assert checkpoint_seed(path) == 4242
        assert checkpoint_seed(tmp_path / "missing.npz") is None
        (tmp_path / "junk.npz").write_bytes(b"not a zip")
        assert checkpoint_seed(tmp_path / "junk.npz") is None

    def test_rng_state_round_trip_is_bit_identical(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        reference = np.random.default_rng(123)
        restored = np.random.default_rng(999)  # wrong seed on purpose
        restore_rng(restored, loaded.rng_state)
        assert np.array_equal(
            reference.integers(0, 1 << 62, size=64),
            restored.integers(0, 1 << 62, size=64),
        )

    def test_restore_rng_none_is_noop(self):
        restore_rng(None, None)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        restore_rng(rng, None)
        assert rng.bit_generator.state == before


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_corrupt_header(self, ckpt, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, meta=np.frombuffer(b"{not json", dtype=np.uint8))
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            load_checkpoint(path)

    def test_version_mismatch(self, ckpt, tmp_path):
        path = tmp_path / "v.npz"
        save_checkpoint(path, ckpt)
        data = dict(np.load(path).items())
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = CHECKPOINT_VERSION + 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_config_tag_mismatch(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match="cannot resume under"):
            load_checkpoint(path, config_tag="something-else")

    def test_num_vertices_mismatch(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match="vertices"):
            load_checkpoint(path, num_vertices=ckpt.num_vertices + 1)

    def test_missing_graph_array(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        data = dict(np.load(path).items())
        del data["cur_neighbors"]
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="missing graph array"):
            load_checkpoint(path)

    def test_rng_family_mismatch(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(CheckpointError, match="MT19937"):
            restore_rng(rng, loaded.rng_state)


class TestCorruptFiles:
    """Torn/garbage checkpoint bytes must surface as CheckpointError only."""

    def test_truncated_zip_raises_checkpoint_error(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        for cut in (len(blob) // 3, len(blob) // 2, len(blob) - 8):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_garbage_bytes_raise_checkpoint_error(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"\x00" * 512)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_empty_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupted_member_bytes_raise_checkpoint_error(self, ckpt, tmp_path):
        # Flip bytes in the middle of the archive: the zip directory may
        # still parse, but extracting a member hits torn compressed data.
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        mid = len(blob) // 2
        for i in range(mid, min(mid + 64, len(blob))):
            blob[i] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestAtomicSave:
    def test_no_temp_file_left_behind(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

    def test_failed_save_preserves_previous_checkpoint(self, ckpt, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        good = path.read_bytes()
        broken = MultilevelCheckpoint(
            level=ckpt.level,
            current=object(),  # not a graph: save blows up mid-pack
            retained=[],
            rng_state=None,
            stats=ckpt.stats,
            config_tag=ckpt.config_tag,
            num_vertices=ckpt.num_vertices,
        )
        with pytest.raises(Exception):
            save_checkpoint(path, broken)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
