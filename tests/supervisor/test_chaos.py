"""Chaos-matrix invariants: every engine recovers under every fault site."""

import pytest

from repro.core.config import ClusteringConfig
from repro.core.engines import ENGINES
from repro.kernels import KERNELS
from repro.resilience.chaos import (
    DEFAULT_KINDS,
    FAULT_SITES,
    CellOutcome,
    ChaosReport,
    chaos_matrix,
    replay_check,
)
from repro.resilience.faults import FaultKind

pytestmark = pytest.mark.supervisor

CONFIG = ClusteringConfig(resolution=0.05, seed=7, num_workers=4)


def _cell(**overrides) -> CellOutcome:
    base = dict(
        kind="transient", site="state-mutation", engine="relaxed",
        kernel="native", objective=10.0, baseline_objective=10.0,
        rel_delta=0.0, degraded=False, injections=1, attempts=1,
        retries=0, fallbacks=0, salvaged=False, failure_log_size=0,
        violations=[],
    )
    base.update(overrides)
    return CellOutcome(**base)


class TestMatrix:
    def test_all_engines_and_kernels_recover(self, karate):
        report = chaos_matrix(
            karate, CONFIG,
            engines=sorted(ENGINES),
            kernels=sorted(KERNELS),
            kinds=[FaultKind.TRANSIENT],
            seed=11,
        )
        assert report.num_cells == len(ENGINES) * len(KERNELS)
        assert report.ok, "\n".join(report.failures())

    def test_every_fault_site_is_covered(self, karate):
        sites = {FAULT_SITES[kind] for kind in DEFAULT_KINDS}
        assert sites == {"state-mutation", "atomics", "frontier"}
        report = chaos_matrix(
            karate, CONFIG,
            engines=["relaxed"],
            kernels=["native"],
            seed=5,
            check_replay=False,
        )
        assert {cell.site for cell in report.outcomes} == sites
        assert report.ok, "\n".join(report.failures())

    def test_matrix_is_deterministic(self, karate):
        kwargs = dict(
            engines=["event"], kernels=["reference"],
            kinds=[FaultKind.CAS_FAIL], seed=2, check_replay=False,
        )
        first = chaos_matrix(karate, CONFIG, **kwargs)
        second = chaos_matrix(karate, CONFIG, **kwargs)
        assert first.as_dict() == second.as_dict()

    def test_replay_check_is_bit_identical(self, small_planted):
        failure = replay_check(small_planted.graph, CONFIG, engine=None)
        assert failure is None


class TestReport:
    def test_ok_requires_every_cell_clean(self):
        good = _cell()
        bad = _cell(violations=["objective off the rails"])
        report = ChaosReport(outcomes=[good, bad], replay_failures=[], tolerance=0.15)
        assert not report.ok
        assert any("objective off the rails" in f for f in report.failures())

    def test_replay_failures_fail_the_report(self):
        report = ChaosReport(
            outcomes=[_cell()],
            replay_failures=["relaxed/native: diverged"],
            tolerance=0.15,
        )
        assert not report.ok
        assert "relaxed/native: diverged" in report.failures()

    def test_summary_mentions_every_cell(self):
        cells = [_cell(), _cell(kind="cas-fail", site="atomics", degraded=True)]
        report = ChaosReport(outcomes=cells, replay_failures=[], tolerance=0.15)
        text = report.summary()
        assert "ALL RECOVERED" in text
        for cell in cells:
            assert cell.label in text

    def test_as_dict_round_trips_through_json(self):
        import json

        report = ChaosReport(outcomes=[_cell()], replay_failures=[], tolerance=0.15)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["cells"][0]["engine"] == "relaxed"
