"""Tests for the sweep / hierarchy CLI subcommands and METIS input."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs.io import write_communities, write_edge_list
from repro.graphs.karate import karate_club_graph


class TestSweepCommand:
    def test_basic_sweep(self, capsys):
        assert main(["sweep", "--karate", "--resolutions", "0.05,0.3",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "resolution" in out
        assert "0.05" in out and "0.3" in out

    def test_sweep_with_communities(self, tmp_path, capsys):
        comms = tmp_path / "c.txt"
        write_communities(
            [np.arange(0, 17), np.arange(17, 34)], comms
        )
        main(["sweep", "--karate", "--resolutions", "0.05",
              "--communities", str(comms), "--seed", "1"])
        out = capsys.readouterr().out
        assert "precision" in out
        assert "recall" in out

    def test_modularity_sweep(self, capsys):
        assert main(["sweep", "--karate", "--objective", "modularity",
                     "--resolutions", "0.5,2.0", "--seed", "1"]) == 0


class TestHierarchyCommand:
    def test_prints_levels(self, capsys):
        assert main(["hierarchy", "--karate", "--resolution", "0.1",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "level" in out
        assert "nested: True" in out

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(karate_club_graph(), path)
        assert main(["hierarchy", "--input", str(path), "--seed", "0"]) == 0


class TestMetisInput:
    def test_cluster_metis_file(self, tmp_path, capsys):
        from repro.graphs.io import write_metis

        path = tmp_path / "karate.graph"
        write_metis(karate_club_graph(), path)
        assert main(["cluster", "--input", str(path), "--seed", "1"]) == 0
        assert "clusters" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--karate", "--labels", "labels.txt"],
        ["consensus", "--karate"],
        ["obs", "diff", "runs.jsonl", "a", "b"],
        ["serve", "--karate", "--script", "session.txt"],
    ],
    ids=["report", "consensus", "obs-diff", "serve-script"],
)
def test_removed_commands_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
