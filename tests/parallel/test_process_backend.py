"""Worker sizing of ``ClusteringConfig.num_workers``.

``num_workers`` sizes the simulated scheduler: 0 means *auto* (the
host's usable core count, capped by the machine profile), and a
negative count is rejected at construction.
"""

import pytest

from repro.core.config import ClusteringConfig
from repro.errors import ConfigError


class TestWorkerSizing:
    def test_config_zero_means_auto(self):
        config = ClusteringConfig(num_workers=0)
        assert config.resolved_workers >= 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            ClusteringConfig(num_workers=-1)
