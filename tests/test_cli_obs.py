"""CLI observability flags: --trace / --metrics / --profile / --engine."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.schema import validate_trace_text
from repro.obs.tracer import Tracer

COMMITTED_RUNS = Path(__file__).resolve().parents[1] / "benchmarks" / "runs.jsonl"


def _run(argv):
    return main(["cluster", "--karate", "--resolution", "0.05",
                 "--seed", "3"] + argv)


def test_trace_flag_writes_valid_jsonl(tmp_path, capsys):
    trace = tmp_path / "out.jsonl"
    assert _run(["--trace", str(trace)]) == 0
    assert f"trace written to {trace}" in capsys.readouterr().out
    assert validate_trace_text(trace.read_text()) == []


def test_metrics_flag_format_by_extension(tmp_path):
    jsonl = tmp_path / "m.jsonl"
    prom = tmp_path / "m.prom"
    assert _run(["--metrics", str(jsonl)]) == 0
    assert _run(["--metrics", str(prom)]) == 0
    # .jsonl: every line is a JSON sample object.
    samples = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert any(s["metric"] == "repro_moves_total" for s in samples)
    # anything else: Prometheus text exposition.
    assert "# TYPE repro_moves_total counter" in prom.read_text()


def test_profile_flag_prints_tables(capsys):
    assert _run(["--profile"]) == 0
    out = capsys.readouterr().out
    assert "per-level profile:" in out
    assert "top 8 regions by simulated work:" in out
    assert "round distributions (bucket-interpolated):" in out
    assert "p50=" in out and "p95=" in out


def test_profile_top_bounds_the_region_table(capsys):
    assert _run(["--profile", "--profile-top", "2"]) == 0
    out = capsys.readouterr().out
    assert "top 2 regions by simulated work:" in out
    regions = [
        line
        for line in out.splitlines()
        if line.startswith("  ") and "%" in line
    ]
    assert len(regions) == 2


def test_profile_json_writes_payload_without_profile_flag(tmp_path, capsys):
    path = tmp_path / "profile.json"
    assert _run(["--profile-json", str(path), "--profile-top", "3"]) == 0
    out = capsys.readouterr().out
    assert "per-level profile:" not in out  # table needs --profile
    payload = json.loads(path.read_text())
    assert payload["levels"]
    assert len(payload["top_regions"]) == 3
    metrics = {row["metric"] for row in payload["round_quantiles"]}
    assert any(m.startswith("round gain") for m in metrics)
    assert any(m.startswith("frontier size") for m in metrics)
    for row in payload["round_quantiles"]:
        assert row["p50"] <= row["p95"]
    assert payload["stats"]["num_clusters"] > 0


def test_no_flags_no_observability_output(capsys):
    assert _run([]) == 0
    out = capsys.readouterr().out
    assert "trace written" not in out
    assert "per-level profile" not in out


@pytest.mark.parametrize(
    "engine", ["relaxed", "prefix", "colored", "event", "sequential"]
)
def test_engine_override_traces_that_engine(tmp_path, engine):
    trace = tmp_path / "out.jsonl"
    assert _run(["--engine", engine, "--trace", str(trace)]) == 0
    records = Tracer.parse_jsonl(trace.read_text())
    engines = {
        r["attrs"]["engine"]
        for r in records
        if r["type"] == "span" and r["name"] == "round"
    }
    assert engines == {engine}


def test_observability_composes_with_resilience(tmp_path, capsys):
    trace = tmp_path / "out.jsonl"
    assert _run(
        ["--trace", str(trace), "--max-rounds", "1"]
    ) == 0
    err = capsys.readouterr().err
    assert "budget" in err
    records = Tracer.parse_jsonl(trace.read_text())
    kinds = {
        r["attrs"]["kind"]
        for r in records
        if r["type"] == "event" and r["name"] == "resilience"
    }
    assert "budget-stop" in kinds


def test_trace_contains_worker_lanes(tmp_path):
    trace = tmp_path / "out.jsonl"
    assert _run(["--trace", str(trace)]) == 0
    records = Tracer.parse_jsonl(trace.read_text())
    lanes = {r["worker"] for r in records if r["type"] == "worker"}
    assert len(lanes) > 1


def test_obs_timeline_subcommand(tmp_path, capsys):
    trace = tmp_path / "out.jsonl"
    assert _run(["--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["obs", "timeline", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "worker lanes" in out
    chrome = tmp_path / "out.chrome.json"
    assert chrome.exists()
    document = json.loads(chrome.read_text())
    pids = {e["pid"] for e in document["traceEvents"]}
    assert pids == {0, 1}


def test_obs_timeline_rejects_invalid_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "span", "name": "broken"}\n')
    assert main(["obs", "timeline", str(bad)]) == 2
    assert "invalid trace" in capsys.readouterr().err


def test_register_report_and_diff_flow(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert _run(["--register", str(runs), "--run-id", "base"]) == 0
    # A second entry with identical metrics (re-running would add real
    # wall-clock jitter and make the pass/fail assertion flaky).
    record = json.loads(runs.read_text().splitlines()[0])
    record["run_id"] = "same"
    with open(runs, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    capsys.readouterr()

    assert main(["obs", "report", str(runs)]) == 0
    report_out = capsys.readouterr().out
    assert "base" in report_out and "same" in report_out

    # Identical workloads and metrics: the diff gate passes.
    assert main(["obs", "diff", str(runs), "base", "same"]) == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_obs_report_last_takes_a_positive_count(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert _run(["--register", str(runs), "--run-id", "base"]) == 0
    record = json.loads(runs.read_text().splitlines()[0])
    record["run_id"] = "newest"
    with open(runs, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    capsys.readouterr()

    assert main(["obs", "report", str(runs), "--last", "1"]) == 0
    out = capsys.readouterr().out
    assert "newest" in out and "base" not in out

    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "report", str(runs), "--last", bad])
        assert exc.value.code == 2
        assert f"must be >= 1, got {bad}" in capsys.readouterr().err


def test_obs_report_columns_line_up(capsys):
    """Long run ids widen the id column; the objective is f_objective."""
    assert main(["obs", "report", str(COMMITTED_RUNS), "--last", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2
    assert header.split()[6] == "f_objective"
    assert max(len(row.split()[0]) for row in rows) > 18

    def edges(line):
        # Text columns (run_id, graph, engine) align left, numbers right.
        cells = list(re.finditer(r"\S+", line))
        return [c.start() for c in cells[:3]] + [c.end() for c in cells[3:8]]

    for row in rows:
        assert edges(row) == edges(header)


def test_obs_diff_fails_on_injected_wall_regression(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert _run(["--register", str(runs), "--run-id", "base"]) == 0
    record = json.loads(runs.read_text().splitlines()[0])
    record["run_id"] = "slow"
    record["metrics"]["wall_seconds"] *= 1.2  # > 10% wall regression
    with open(runs, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["obs", "diff", str(runs), "base", "slow"]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_obs_diff_unknown_run_id(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    assert _run(["--register", str(runs), "--run-id", "base"]) == 0
    capsys.readouterr()
    assert main(["obs", "diff", str(runs), "base", "nope"]) == 2
    assert "not in registry" in capsys.readouterr().err


def test_obs_diff_vacuous_compare_fails(tmp_path, capsys):
    """A diff that compared zero metrics is a failure, not a silent pass."""
    runs = tmp_path / "runs.jsonl"
    assert _run(["--register", str(runs), "--run-id", "base"]) == 0
    record = json.loads(runs.read_text().splitlines()[0])
    record["run_id"] = "hollow"
    # Metrics present (schema requires them) but non-numeric after a
    # hand edit: every comparison row is skipped.
    for name in list(record["metrics"]):
        record["metrics"][name] = float("nan")
    with open(runs, "a") as handle:
        handle.write(json.dumps(record).replace("NaN", '"x"') + "\n")
    capsys.readouterr()
    # The corrupt record is rejected at load time -> data error (2) ...
    assert main(["obs", "diff", str(runs), "base", "hollow"]) == 2


def test_obs_diff_compared_zero_exit(monkeypatch, tmp_path, capsys):
    """compared == 0 on an otherwise-ok report exits 1."""
    import repro.obs.registry as registry_mod
    from repro.bench.harness import CompareReport

    runs = tmp_path / "runs.jsonl"
    assert _run(["--register", str(runs), "--run-id", "base"]) == 0
    record = json.loads(runs.read_text().splitlines()[0])
    record["run_id"] = "same"
    with open(runs, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    monkeypatch.setattr(
        registry_mod, "diff_runs",
        lambda *a, **k: CompareReport(suite="runs"),
    )
    capsys.readouterr()
    assert main(["obs", "diff", str(runs), "base", "same"]) == 1
    assert "no metrics were comparable" in capsys.readouterr().err
