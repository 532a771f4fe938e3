"""Supervision policy: the attempt count and the ladder order."""

import pytest

from repro.core.config import ClusteringConfig
from repro.core.engines import ENGINES
from repro.errors import ConfigError
from repro.supervisor import RunSupervisor, fallback_rungs

pytestmark = pytest.mark.supervisor


def names(rungs):
    return [rung.name for rung in rungs]


class TestMaxAttempts:
    def test_default_is_three_per_rung(self):
        assert RunSupervisor().max_attempts == 3

    def test_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunSupervisor(max_attempts=0)


class TestFallbackLadder:
    def test_default_ladder_order(self):
        assert names(fallback_rungs(ClusteringConfig())) == [
            "as-configured",
            "sequential-engine",
            "graceful",
        ]

    def test_ladder_is_cumulative(self):
        bottom = fallback_rungs(ClusteringConfig())[-1]
        assert bottom.graceful
        assert bottom.engine == "sequential"

    def test_already_at_bottom_skips_those_rungs(self):
        config = ClusteringConfig(parallel=False)
        assert names(fallback_rungs(config)) == ["as-configured", "graceful"]

    def test_sequential_engine_request_skips_engine_rung(self):
        rungs = fallback_rungs(ClusteringConfig(), engine="sequential")
        assert names(rungs) == ["as-configured", "graceful"]

    def test_same_config_same_ladder(self):
        first = fallback_rungs(ClusteringConfig(), engine="event")
        second = fallback_rungs(ClusteringConfig(), engine="event")
        assert first == second

    def test_ladder_never_empty(self):
        for parallel in (True, False):
            for engine in (None, *sorted(ENGINES)):
                config = ClusteringConfig(parallel=parallel)
                rungs = fallback_rungs(config, engine=engine)
                assert rungs[0].name == "as-configured"
                assert rungs[-1].graceful
