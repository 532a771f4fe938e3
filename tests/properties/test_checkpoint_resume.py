"""Property test: checkpoint round-trip resumes bit-identically.

A run that checkpoints at every level boundary, is "killed", and then
resumed from the last checkpoint must produce exactly the assignments
and objective of the uninterrupted run — across seeds, resolutions, and
graphs.  This is the contract that makes checkpoints trustworthy: resume
is a pure replay, not an approximation.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.generators.planted import planted_partition_graph
from repro.graphs.karate import karate_club_graph
from repro.resilience import ResiliencePolicy

_KARATE = karate_club_graph()
_PLANTED = planted_partition_graph(
    num_vertices=120, intra_degree=8.0, inter_degree=1.0, seed=9
).graph


def _run_with_checkpoint(graph, config, ckpt_path):
    return cluster(
        graph,
        config,
        RunOptions(resilience=ResiliencePolicy(checkpoint_path=str(ckpt_path))),
    )


def _resume(graph, config, ckpt_path):
    return cluster(
        graph,
        config,
        RunOptions(resilience=ResiliencePolicy(resume_from=str(ckpt_path))),
    )


class TestCheckpointResumeProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        resolution=st.sampled_from([0.01, 0.05, 0.25]),
        use_planted=st.booleans(),
    )
    def test_resume_replays_bit_identically(self, seed, resolution, use_planted):
        graph = _PLANTED if use_planted else _KARATE
        config = ClusteringConfig(resolution=resolution, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ck.npz"
            full = _run_with_checkpoint(graph, config, ckpt)
            if not ckpt.exists():
                return  # single-level run: no boundary, nothing to resume
            resumed = _resume(graph, config, ckpt)
        assert np.array_equal(full.assignments, resumed.assignments)
        assert resumed.objective == pytest.approx(full.objective, rel=0, abs=0)
        assert resumed.num_clusters == full.num_clusters

    def test_checkpointing_does_not_perturb_the_run(self):
        config = ClusteringConfig(resolution=0.05, seed=7)
        clean = cluster(_KARATE, config)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ck.npz"
            checkpointed = _run_with_checkpoint(_KARATE, config, ckpt)
        assert np.array_equal(clean.assignments, checkpointed.assignments)
        assert checkpointed.objective == clean.objective

    def test_resume_notes_provenance_in_failure_log(self):
        config = ClusteringConfig(resolution=0.05, seed=7)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ck.npz"
            _run_with_checkpoint(_KARATE, config, ckpt)
            if not ckpt.exists():
                pytest.skip("run finished in one level")
            resumed = _resume(_KARATE, config, ckpt)
        assert any("resumed from" in line for line in resumed.failure_log)
        assert not resumed.degraded  # resuming is not a degradation
