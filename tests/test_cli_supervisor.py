"""CLI: supervision flags, chaos subcommand, input-repair mode."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.supervisor


class TestSuperviseFlags:
    def test_supervised_clean_run(self, capsys):
        code = main(["cluster", "--karate", "--supervise"])
        assert code == 0
        err = capsys.readouterr().err
        assert "supervised: rung=as-configured" in err
        assert "attempts=1" in err

    def test_supervised_run_under_faults_still_exits_cleanly(self, capsys):
        code = main([
            "cluster", "--karate", "--supervise",
            "--inject", "transient=0.5", "--seed", "3",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "supervised: rung=" in err

    def test_deadline_flags_accepted(self, capsys):
        code = main([
            "cluster", "--karate",
            "--run-deadline", "600", "--level-deadline", "300",
        ])
        assert code == 0
        assert "supervised:" in capsys.readouterr().err

    def test_checkpoint_dir_is_used(self, tmp_path, capsys):
        code = main([
            "cluster", "--karate", "--supervise",
            "--checkpoint-dir", str(tmp_path),
        ])
        assert code == 0

    def test_max_attempts_flag(self, capsys):
        code = main([
            "cluster", "--karate", "--supervise", "--max-attempts", "1",
        ])
        assert code == 0


class TestOnMalformed:
    def test_repair_mode_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "dirty.txt"
        path.write_text("0 1\n1 1\n1 0\n1 2\n")
        code = main([
            "cluster", "--input", str(path), "--on-malformed", "repair",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "input repairs:" in err
        assert "self_loops_dropped=1" in err
        assert "duplicate_edges_merged=1" in err

    def test_strict_is_the_default(self, tmp_path, capsys):
        path = tmp_path / "dirty.txt"
        path.write_text("0 1\n1 1\n")
        code = main(["cluster", "--input", str(path)])
        assert code == 0
        assert "input repairs" not in capsys.readouterr().err


class TestChaosCommand:
    def test_small_matrix_recovers(self, capsys):
        code = main([
            "chaos", "--karate",
            "--engines", "relaxed", "--kernels", "native",
            "--kinds", "transient", "--no-replay",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos matrix:" in out
        assert "ALL RECOVERED" in out

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main([
            "chaos", "--karate",
            "--engines", "sequential", "--kernels", "reference",
            "--kinds", "transient", "--no-replay",
            "--json", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert payload["cells"][0]["engine"] == "sequential"

    def test_unknown_kind_is_a_typed_error(self, capsys):
        code = main(["chaos", "--karate", "--kinds", "meteor-strike"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown fault kind" in err and "meteor-strike" in err

    def test_unknown_engine_is_a_typed_error(self, capsys):
        code = main(["chaos", "--karate", "--engines", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ConfigError" in err and "bogus" in err
