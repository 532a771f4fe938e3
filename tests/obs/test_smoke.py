"""End-to-end observability smoke (the ``obs``-marked CI job).

Runs one traced clustering through the real CLI, then validates the
trace JSONL against the schema and parses the metrics back — the exact
gate ``make smoke-obs`` runs.
"""

import pytest

from repro.cli import main as cli_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_trace_file
from repro.obs.tracer import Tracer, span_tree

pytestmark = pytest.mark.obs


def test_traced_cli_clustering_smoke(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "run.jsonl"
    assert cli_main(
        [
            "cluster", "--karate", "--resolution", "0.05", "--seed", "3",
            "--trace", str(trace), "--metrics", str(metrics), "--profile",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "per-level profile:" in out
    assert "regions by simulated work:" in out
    assert "round distributions (bucket-interpolated):" in out

    # The trace validates and rebuilds into the run -> level -> phase ->
    # round taxonomy.
    validate_trace_file(trace)
    records = Tracer.parse_jsonl(trace.read_text())
    (root,) = span_tree(records)
    assert root.name == "run"
    names = {n.name for n in root.walk()}
    assert names == {"run", "level", "phase", "round"}

    # Metrics parse back with nonzero moves and a final objective.
    samples = MetricsRegistry.parse_jsonl(metrics.read_text())
    by_name = {}
    for sample in samples:
        if sample["type"] != "histogram":
            by_name.setdefault(sample["metric"], []).append(sample["value"])
    assert sum(by_name["repro_moves_total"]) > 0
    assert by_name["repro_objective_f"][0] > 0

    # The CLI's validate-trace gate agrees.
    assert cli_main(["obs", "validate-trace", str(trace)]) == 0
