"""CLI: ``repro update`` and label round-trips."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.dynamic.updates import EdgeUpdate, write_update_log
from repro.errors import GraphFormatError
from repro.graphs.io import read_labels, write_labels

pytestmark = pytest.mark.dynamic


def write_log(path, updates):
    write_update_log(path, updates)
    return str(path)


BASIC_UPDATES = [
    EdgeUpdate("insert", 0, 9, 1.0),
    EdgeUpdate("delete", 0, 2),
    EdgeUpdate("reweight", 0, 1, 2.0),
]


class TestLabelsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        assignments = np.asarray([0, 1, 1, 0, 2], dtype=np.int64)
        write_labels(assignments, path)
        assert np.array_equal(read_labels(path), assignments)

    def test_header_present(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels(np.zeros(3, np.int64), path)
        assert path.read_text().startswith("# repro labels: n=3")

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("0\t0\n0\t1\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            read_labels(path)

    def test_rejects_incomplete(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("0\t0\n2\t1\n")
        with pytest.raises(GraphFormatError):
            read_labels(path)


class TestClusterOutputLabels:
    def test_cluster_writes_labels(self, tmp_path, capsys):
        out = tmp_path / "labels.tsv"
        assert (
            main(
                ["cluster", "--karate", "--seed", "1",
                 "--output-labels", str(out)]
            )
            == 0
        )
        labels = read_labels(out)
        assert labels.size == 34
        assert "labels written" in capsys.readouterr().out


class TestUpdateCommand:
    def test_bootstrap_and_replay(self, tmp_path, capsys):
        log = write_log(tmp_path / "u.jsonl", BASIC_UPDATES)
        code = main(
            ["update", "--karate", "--seed", "1", "--updates", log,
             "--batch-size", "2", "--audit"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "batch 0: updates=2" in out
        assert "batch 1: updates=1" in out
        assert "audit: clean" in out

    def test_labels_round_trip(self, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        main(["cluster", "--karate", "--seed", "1",
              "--output-labels", str(labels)])
        log = write_log(tmp_path / "u.jsonl", BASIC_UPDATES)
        code = main(
            ["update", "--karate", "--seed", "1", "--labels", str(labels),
             "--updates", log, "--output-labels", str(tmp_path / "out.tsv")]
        )
        assert code == 0
        final = read_labels(tmp_path / "out.tsv")
        assert final.size == 34
        capsys.readouterr()

    def test_snapshot_continuation(self, tmp_path, capsys):
        snapdir = tmp_path / "store"
        log1 = write_log(tmp_path / "u1.jsonl", BASIC_UPDATES[:1])
        assert (
            main(
                ["update", "--karate", "--seed", "1", "--updates", log1,
                 "--snapshot-dir", str(snapdir)]
            )
            == 0
        )
        # Second invocation restores from the rotation directory.
        log2 = write_log(tmp_path / "u2.jsonl", BASIC_UPDATES[1:])
        assert (
            main(
                ["update", "--seed", "1", "--updates", log2,
                 "--snapshot-dir", str(snapdir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch 1:" in out  # counters continue across restarts

    def test_register_workload_tags(self, tmp_path, capsys):
        registry = tmp_path / "runs.jsonl"
        log = write_log(tmp_path / "u.jsonl", BASIC_UPDATES)
        code = main(
            ["update", "--karate", "--seed", "1", "--updates", log,
             "--batch-size", "2", "--register", str(registry),
             "--run-id", "u-test"]
        )
        assert code == 0
        record = json.loads(registry.read_text().splitlines()[-1])
        assert record["run_id"] == "u-test"
        tags = record["workload"]["update_batch"]
        assert tags["batches"] == 2
        assert tags["updates"] == {"insert": 1, "delete": 1, "reweight": 1}
        capsys.readouterr()

    def test_unseeded_session_records_a_replayable_seed(self, tmp_path, capsys):
        registry = tmp_path / "runs.jsonl"
        log = write_log(tmp_path / "u.jsonl", BASIC_UPDATES)
        argv = ["update", "--karate", "--updates", log, "--batch-size", "2"]
        assert main(argv + ["--register", str(registry)]) == 0
        first = capsys.readouterr().out.splitlines()[:-1]  # minus "registered"
        seed = json.loads(registry.read_text().splitlines()[-1])["workload"]["seed"]
        assert isinstance(seed, int)
        assert main(argv + ["--seed", str(seed)]) == 0
        assert capsys.readouterr().out.splitlines() == first

    def test_restored_session_registers_the_seed_that_drove_it(
        self, tmp_path, capsys
    ):
        registry = tmp_path / "runs.jsonl"
        store = ["--snapshot-dir", str(tmp_path / "store")]
        register = ["--register", str(registry)]
        log1 = write_log(tmp_path / "u1.jsonl", BASIC_UPDATES[:1])
        log2 = write_log(tmp_path / "u2.jsonl", BASIC_UPDATES[1:])
        assert main(["update", "--karate", "--updates", log1] + store + register) == 0
        assert main(["update", "--updates", log2] + store + register) == 0
        first, restored = [
            json.loads(line)["workload"]["seed"]
            for line in registry.read_text().splitlines()
        ]
        assert isinstance(first, int) and restored == first
        capsys.readouterr()

    def test_requires_state_source(self, tmp_path):
        log = write_log(tmp_path / "u.jsonl", BASIC_UPDATES[:1])
        with pytest.raises(SystemExit):
            main(["update", "--updates", log])
