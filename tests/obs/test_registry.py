"""Run registry: schema, append/load and run lookup."""

import json

import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.graphs.karate import karate_club_graph
from repro.obs.registry import (
    RUNS_SCHEMA,
    RunRegistryError,
    append_run,
    find_run,
    load_runs,
    make_run_record,
    validate_run_record,
)


@pytest.fixture(scope="module")
def result():
    config = ClusteringConfig(resolution=0.05, seed=3)
    return cluster(karate_club_graph(), config)


def test_make_run_record_satisfies_schema(result):
    record = make_run_record(result, run_id="r1", graph="karate")
    assert record["schema"] == RUNS_SCHEMA
    assert validate_run_record(record) == []
    assert record["workload"]["graph"] == "karate"
    assert record["metrics"]["wall_seconds"] > 0
    assert record["info"]["num_clusters"] == result.num_clusters


def test_append_and_load_round_trip(result, tmp_path):
    path = tmp_path / "runs.jsonl"
    first = make_run_record(result, run_id="a", graph="karate", timestamp=1.0)
    second = make_run_record(result, run_id="b", graph="karate", timestamp=2.0)
    append_run(path, first)
    append_run(path, second)
    records = load_runs(path)
    assert [r["run_id"] for r in records] == ["a", "b"]
    assert find_run(records, "b")["timestamp"] == 2.0
    with pytest.raises(RunRegistryError, match="not in registry"):
        find_run(records, "missing")


def test_append_rejects_invalid_record(tmp_path):
    with pytest.raises(RunRegistryError, match="refusing to register"):
        append_run(tmp_path / "runs.jsonl", {"schema": RUNS_SCHEMA})


def test_load_rejects_corrupt_registry(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"schema": "nope"}\n')
    with pytest.raises(RunRegistryError, match="line 0"):
        load_runs(path)
    path.write_text("not json\n")
    with pytest.raises(RunRegistryError, match="invalid JSON"):
        load_runs(path)


def test_find_run_latest_wins_on_reused_id(result, tmp_path):
    path = tmp_path / "runs.jsonl"
    append_run(
        path, make_run_record(result, run_id="r", graph="karate", timestamp=1.0)
    )
    append_run(
        path, make_run_record(result, run_id="r", graph="karate", timestamp=2.0)
    )
    assert find_run(load_runs(path), "r")["timestamp"] == 2.0


def test_registry_record_is_json_line(result, tmp_path):
    path = tmp_path / "runs.jsonl"
    append_run(path, make_run_record(result, run_id="x", graph="karate"))
    (line,) = path.read_text().splitlines()
    assert json.loads(line)["run_id"] == "x"


class TestCrashSafeAppend:
    def test_append_drops_torn_tail_from_earlier_crash(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        good = make_run_record(result, run_id="good", graph="karate", timestamp=1.0)
        append_run(path, good)
        # Simulate an earlier non-atomic writer dying mid-line: no newline.
        with open(path, "a") as handle:
            handle.write('{"schema": "repro.obs.runs/v1", "run_id": "to')
        fresh = make_run_record(result, run_id="fresh", graph="karate", timestamp=2.0)
        append_run(path, fresh)
        records = load_runs(path)
        assert [r["run_id"] for r in records] == ["good", "fresh"]

    def test_append_leaves_no_temp_file(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_run(path, make_run_record(result, run_id="a", graph="karate"))
        append_run(path, make_run_record(result, run_id="b", graph="karate"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl"]

    def test_registry_always_ends_with_newline(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_run(path, make_run_record(result, run_id="a", graph="karate"))
        assert path.read_bytes().endswith(b"\n")

    def test_append_creates_parent_directories(self, result, tmp_path):
        path = tmp_path / "nested" / "deeper" / "runs.jsonl"
        append_run(path, make_run_record(result, run_id="a", graph="karate"))
        assert len(load_runs(path)) == 1

    def test_rejected_record_leaves_registry_untouched(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_run(path, make_run_record(result, run_id="a", graph="karate"))
        before = path.read_bytes()
        with pytest.raises(RunRegistryError):
            append_run(path, {"schema": "wrong"})
        assert path.read_bytes() == before
