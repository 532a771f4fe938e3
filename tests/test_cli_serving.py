"""CLI: ``repro serve`` — the workload-driver front to the gateway."""

import re

import pytest

from repro.cli import main

pytestmark = pytest.mark.serving


def serve(*extra):
    return [
        "serve", "--karate", "--resolution", "0.1", "--seed", "3",
        "--requests", "80", "--workload-seed", "5", *extra,
    ]


class TestServeCommand:
    def test_sim_driver_with_replay_gate(self, capsys):
        """A run with no driver flags uses the default threaded driver and
        passes the replay gate and the no-silent-drops audit."""
        assert main(serve("--verify-replay")) == 0
        out = capsys.readouterr().out
        assert "threads=4" in out
        assert "bit-identical" in out
        assert "no silent drops" in out

    def test_unseeded_replay_gate_uses_the_drawn_seed(self, capsys):
        argv = [
            "serve", "--karate", "--resolution", "0.1", "--requests", "400",
            "--read-fraction", "0.5", "--workload-seed", "5", "--verify-replay",
            "--max-batch-updates", "64",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert int(re.search(r"commits=(\d+)", out).group(1)) >= 2
        assert "bit-identical" in out

    def test_threaded_driver(self, capsys):
        assert main(serve("--threads", "2", "--verify-replay")) == 0
        out = capsys.readouterr().out
        assert "threads=2" in out
        assert "bit-identical" in out
        assert "no silent drops" in out

    def test_doctor_reports_gateway_facts(self, capsys):
        assert main(serve("--doctor")) == 0
        out = capsys.readouterr().out
        assert "gateway-write-shed-rate" in out
        assert "gateway-read-" not in out

    def test_metrics_include_gateway_series(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        assert main(serve("--metrics", str(metrics))) == 0
        text = metrics.read_text()
        assert "repro_gateway_requests_total" in text
        assert "repro_gateway_epoch" in text

