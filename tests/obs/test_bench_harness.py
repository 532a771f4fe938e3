"""Bench harness: timing, suite files, and the regression compare gate."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.harness import (
    BASELINE_SCHEMA,
    BenchSuite,
    compare,
    compare_files,
    load_baseline,
    metric_direction,
    time_callable,
)


def test_metric_direction_heuristics():
    assert metric_direction("wall_seconds") == "lower"
    assert metric_direction("sim_time_seconds") == "lower"
    assert metric_direction("peak_bytes") == "lower"
    assert metric_direction("slowdown") == "lower"
    assert metric_direction("f_objective") == "higher"
    assert metric_direction("speedup") == "higher"
    assert metric_direction("quality") == "higher"
    assert metric_direction("rounds") == "info"


def test_time_callable_repeats_and_result():
    calls = []
    result, timing = time_callable(
        lambda: calls.append(1) or "out", repeats=3, warmup=2
    )
    assert result == "out"
    assert len(calls) == 5  # 2 warmups + 3 timed
    assert timing.repeats == 3
    assert timing.best == min(timing.runs)
    with pytest.raises(ValueError, match="repeats"):
        time_callable(lambda: None, repeats=0)


def test_time_callable_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_REPEATS", "2")
    _, timing = time_callable(lambda: None)
    assert timing.repeats == 2


def _suite(sim: float, objective: float) -> BenchSuite:
    suite = BenchSuite("demo", meta={"workload": "unit-test"})
    suite.add_row(
        "relaxed",
        metrics={"sim_time_seconds": sim, "f_objective": objective},
        rounds=7,
    )
    return suite


def test_suite_rejects_duplicate_keys_and_bad_names():
    suite = _suite(1.0, 10.0)
    with pytest.raises(ValueError, match="duplicate row key"):
        suite.add_row("relaxed", metrics={"sim_time_seconds": 2.0})
    with pytest.raises(ValueError, match="invalid suite name"):
        BenchSuite("has/slash")


def test_suite_write_and_load_round_trip(tmp_path):
    path = _suite(1.0, 10.0).write(tmp_path)
    assert path.name == "BENCH_demo.json"
    payload = load_baseline(path)
    assert payload["schema"] == BASELINE_SCHEMA
    assert payload["directions"]["sim_time_seconds"] == "lower"
    assert payload["rows"][0]["info"]["rounds"] == 7


def test_load_baseline_rejects_wrong_schema(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"schema": "other/v9", "name": "x", "rows": []}))
    with pytest.raises(ValueError, match="unsupported baseline schema"):
        load_baseline(path)


def test_compare_flags_regressions_beyond_tolerance():
    baseline = _suite(1.0, 10.0).payload()
    # 50% slower and 50% worse objective: both directions regress.
    current = _suite(1.5, 5.0).payload()
    report = compare(baseline, current, tolerance=0.10)
    assert not report.ok
    flagged = {(r.metric, round(r.change, 2)) for r in report.regressions}
    assert ("sim_time_seconds", 0.5) in flagged
    assert ("f_objective", 0.5) in flagged
    assert report.compared == 2
    # A run that produced no number never compares clean.
    nan = compare(baseline, _suite(1.0, float("nan")).payload())
    assert [r.metric for r in nan.regressions] == ["f_objective"]
    assert nan.regressions[0].change == float("inf")


def test_compare_within_tolerance_and_improvements_pass():
    baseline = _suite(1.0, 10.0).payload()
    within = compare(baseline, _suite(1.05, 9.8).payload(), tolerance=0.10)
    assert within.ok and not within.improvements
    better = compare(baseline, _suite(0.5, 20.0).payload(), tolerance=0.10)
    assert better.ok
    assert len(better.improvements) == 2


def test_compare_reports_missing_rows_and_metrics():
    baseline = _suite(1.0, 10.0).payload()
    empty = compare(baseline, {"name": "demo", "rows": []})
    assert empty.ok  # nothing compared, but coverage loss is surfaced
    assert empty.skipped == ["relaxed: row missing from current run"]

    stripped = _suite(1.0, 10.0).payload()
    del stripped["rows"][0]["metrics"]["f_objective"]
    report = compare(baseline, stripped)
    assert any("f_objective" in note for note in report.skipped)


def test_info_metrics_never_fail_compare():
    suite = BenchSuite("demo")
    suite.add_row("row", metrics={"rounds": 10.0})
    baseline = suite.payload()
    other = BenchSuite("demo")
    other.add_row("row", metrics={"rounds": 1000.0})
    assert compare(baseline, other.payload()).ok


def test_cli_compare_exit_codes(tmp_path, capsys):
    base_dir = tmp_path / "base"
    cur_dir = tmp_path / "cur"
    _suite(1.0, 10.0).write(base_dir)
    _suite(1.0, 10.0).write(cur_dir)
    assert main(
        ["compare", str(base_dir / "BENCH_demo.json"),
         str(cur_dir / "BENCH_demo.json")]
    ) == 0
    _suite(9.0, 1.0).write(cur_dir)
    assert main(
        ["compare", str(base_dir / "BENCH_demo.json"),
         str(cur_dir / "BENCH_demo.json")]
    ) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out


def test_cli_compare_files_helper(tmp_path):
    a = _suite(1.0, 10.0).write(tmp_path / "a")
    b = _suite(1.2, 10.0).write(tmp_path / "b")
    report = compare_files(a, b, tolerance=0.10)
    assert [r.metric for r in report.regressions] == ["sim_time_seconds"]


def test_cli_validate_trace(tmp_path, capsys):
    from repro.cli import main as cli_main
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    with tracer.span("run"):
        pass
    good = tmp_path / "good.jsonl"
    tracer.write_jsonl(good)
    assert cli_main(["obs", "validate-trace", str(good)]) == 0

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "event", "name": "orphan"}\n')
    assert cli_main(["obs", "validate-trace", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_committed_baselines_load_and_self_compare():
    """The committed BENCH_*.json files parse and compare clean vs selves."""
    from pathlib import Path

    baseline_dir = Path(__file__).resolve().parents[2] / "benchmarks/baselines"
    paths = sorted(baseline_dir.glob("BENCH_*.json"))
    assert {p.name for p in paths} >= {
        "BENCH_engines.json", "BENCH_overhead.json", "BENCH_PR3.json",
        "BENCH_PR4.json", "BENCH_PR7.json",
    }
    for path in paths:
        payload = load_baseline(path)
        report = compare(payload, payload)
        assert report.ok and not report.skipped
