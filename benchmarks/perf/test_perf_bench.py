"""Tests of the perf benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Every workload runs at ``--smoke`` size for one second, untraced and
traced; a run takes a few seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import agree  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

SPEC = json.loads(run.BENCHMARK_JSON.read_text())


def wrap_targets() -> dict:
    return {t.label: layertrace.resolve(t)[2] for t in layertrace.TARGETS}


#: The layer functions as imported, before any benchmark run.
ORIGINALS = wrap_targets()


def smoke(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=1, seconds=1.0, trace=trace, smoke=True)


@pytest.fixture(scope="module")
def records():
    cache = {}

    def get(name: str, trace: bool) -> dict:
        if (name, trace) not in cache:
            cache[(name, trace)] = smoke(name, trace)
        return cache[(name, trace)]

    return get


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_end_to_end_metric_emitted_with_unit_and_clock(records, name):
    record = records(name, False)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        m = record["metrics"][spec["name"]]
        assert m["unit"] == spec["unit"]
        assert m["clock"]
        assert math.isfinite(m["value"]) and m["value"] > 0, spec["name"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_per_layer_metric_emitted_with_unit_and_clock(records, name):
    record = records(name, True)
    assert record["correct"], record["checks"]
    assert [s["name"] for s in SPEC["per_layer"]] == list(record["layers"])
    for spec in SPEC["per_layer"]:
        m = record["layers"][spec["name"]]
        assert m["unit"] == spec["unit"]
        assert m["clock"]
        assert m["value"] is not None and math.isfinite(m["value"]), spec["name"]
    assert record["layers"]["kernels.calls"]["value"] > 0


def test_traced_run_restores_every_wrapped_function(records):
    record = records("serve", True)
    assert record["layers"]["gateway.commits"]["value"] > 0  # the wrappers ran
    after = wrap_targets()
    assert all(after[label] is fn for label, fn in ORIGINALS.items())


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(layertrace.Tracer, "install", refuse)
    assert smoke("updates", False)["correct"]
    assert wrap_targets() == ORIGINALS


def test_unresolvable_target_yields_null(monkeypatch, capfd):
    renamed = tuple(
        layertrace.Target(t.label, t.module, "VectorizedKernel.renamed_batch_moves")
        if t.label == "kernel" else t
        for t in layertrace.TARGETS
    )
    monkeypatch.setattr(layertrace, "TARGETS", renamed)
    record = smoke("rmat16", True)
    assert record["correct"]
    layers = record["layers"]
    for name in ("kernels.busy_s", "kernels.calls", "kernels.move_yield", "moves.charge_s"):
        assert layers[name]["value"] is None
    assert layers["best_moves.busy_s"]["value"] > 0
    assert "cannot wrap repro.kernels.vectorized" in capfd.readouterr().err


def test_cli_last_line_is_the_result_object(tmp_path):
    out = tmp_path / "res.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "updates", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=run.REPO,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [s["name"] for s in SPEC["end_to_end"]]
    assert json.loads(out.read_text())["workload"] == "updates"


def test_agree_marks_within_bound_worse_and_unresolved(tmp_path):
    def write(path, values):
        with open(path, "w") as handle:
            for v in values:
                record = {"workload": "rmat16", "trace": 0,
                          "metrics": {"op_p50_ms": {"value": v}}}
                handle.write(json.dumps(record) + "\n")

    spec = {"better": "lower", "bound": 0.1}
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    write(tmp_path / "a.jsonl", base)
    write(tmp_path / "b.jsonl", [v * 1.2 for v in base])
    a = agree.load(tmp_path / "a.jsonl")["rmat16"]["op_p50_ms"]
    b = agree.load(tmp_path / "b.jsonl")["rmat16"]["op_p50_ms"]
    assert agree.verdict(spec, a, a)["status"] == "within-bound"
    assert agree.verdict(spec, a, b)["status"] == "worse"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert agree.verdict(spec, a, noisy)["status"] == "unresolved"
