"""CLI: resilience flags, typed-error exit codes, --verbose re-raise."""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import CheckpointError, GraphFormatError


def _read_labels(path):
    return np.asarray(
        [int(line) for line in path.read_text().split()], dtype=np.int64
    )


class TestErrorBoundary:
    def test_typed_error_exits_2_with_one_line_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nx 2\n")
        code = main(["cluster", "--input", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "GraphFormatError" in err and "bad.txt:2" in err

    def test_verbose_reraises(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nx 2\n")
        with pytest.raises(GraphFormatError):
            main(["--verbose", "cluster", "--input", str(bad)])

    def test_resume_from_garbage_exits_2(self, tmp_path, capsys):
        garbage = tmp_path / "ck.npz"
        garbage.write_bytes(b"not an npz")
        code = main(
            ["cluster", "--karate", "--resume", str(garbage)]
        )
        assert code == 2
        assert "CheckpointError" in capsys.readouterr().err

    def test_zero_checkpoint_interval_exits_2(self, tmp_path, capsys):
        code = main([
            "cluster", "--karate",
            "--checkpoint", str(tmp_path / "ck.npz"), "--checkpoint-every", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ConfigError" in err and "checkpoint_every" in err

    def test_verbose_reraises_checkpoint_error(self, tmp_path):
        garbage = tmp_path / "ck.npz"
        garbage.write_bytes(b"not an npz")
        with pytest.raises(CheckpointError):
            main(["--verbose", "cluster", "--karate", "--resume", str(garbage)])


class TestResilienceFlags:
    def test_audit_run_succeeds(self, capsys):
        code = main(
            ["cluster", "--karate", "--resolution", "0.05", "--seed", "7",
             "--audit"]
        )
        assert code == 0
        assert "DEGRADED" not in capsys.readouterr().out

    def test_budget_degrades_and_reports(self, capsys):
        code = main(
            ["cluster", "--karate", "--resolution", "0.05", "--seed", "7",
             "--max-rounds", "1"]
        )
        assert code == 0  # graceful degradation is a successful exit
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.out
        assert "round budget" in captured.err

    def test_strict_budget_exits_2(self, capsys):
        code = main(
            ["cluster", "--karate", "--resolution", "0.05", "--seed", "7",
             "--max-rounds", "1", "--strict"]
        )
        assert code == 2
        assert "BudgetExhausted" in capsys.readouterr().err

    def test_inject_reports_fault_tally(self, capsys):
        code = main(
            ["cluster", "--karate", "--resolution", "0.05", "--seed", "7",
             "--inject", "drop-move=0.3", "--fault-seed", "3", "--audit"]
        )
        assert code == 0
        assert "faults injected:" in capsys.readouterr().err

    def test_bad_inject_spec_exits_2(self, capsys):
        code = main(["cluster", "--karate", "--inject", "segfault=0.5"])
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_checkpoint_then_resume_identical_labels(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.npz"
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        base = ["cluster", "--karate", "--resolution", "0.05", "--seed", "7"]
        assert main(base + ["--checkpoint", str(ckpt), "--output", str(first)]) == 0
        assert "checkpoint written to" in capsys.readouterr().out
        assert ckpt.exists()
        assert main(base + ["--resume", str(ckpt), "--output", str(second)]) == 0
        assert "resumed from" in capsys.readouterr().err
        assert np.array_equal(_read_labels(first), _read_labels(second))

    def test_resume_under_different_config_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.npz"
        base = ["cluster", "--karate", "--seed", "7"]
        assert main(base + ["--resolution", "0.05", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        code = main(base + ["--resolution", "0.25", "--resume", str(ckpt)])
        assert code == 2
        assert "cannot resume under" in capsys.readouterr().err
