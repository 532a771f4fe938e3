from unittest import mock

import pytest

from repro.core.config import (
    ClusteringConfig,
    Frontier,
    Mode,
    Objective,
    resolve_workers,
)
from repro.errors import ConfigError
from repro.kernels import native
from repro.parallel.scheduler import Machine


class TestValidation:
    def test_defaults_are_papers_best_settings(self):
        config = ClusteringConfig()
        assert config.mode is Mode.ASYNC
        assert config.frontier is Frontier.VERTEX_NEIGHBORS
        assert config.refine is True
        assert config.num_iter == 10  # the paper's default

    def test_cc_lambda_range(self):
        ClusteringConfig(resolution=0.0)  # degenerate allowed for tests
        with pytest.raises(ConfigError):
            ClusteringConfig(resolution=1.0)
        with pytest.raises(ConfigError):
            ClusteringConfig(resolution=-0.1)

    def test_modularity_gamma_positive(self):
        ClusteringConfig(objective=Objective.MODULARITY, resolution=5.0)
        with pytest.raises(ConfigError):
            ClusteringConfig(objective=Objective.MODULARITY, resolution=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_iter", 0),
            ("num_workers", -1),
            ("async_windows", 0),
            ("max_levels", 0),
            ("kernel_threshold", 0),
        ],
    )
    def test_positive_int_fields(self, field, value):
        with pytest.raises(ConfigError):
            ClusteringConfig(**{field: value})

    def test_zero_workers_means_auto(self):
        # 0 is not invalid — it asks for host-sized worker resolution.
        config = ClusteringConfig(num_workers=0)
        assert config.resolved_workers >= 1
        assert config.resolved_workers == resolve_workers(0, config.machine)


class TestResolveWorkers:
    def test_auto(self):
        resolved = resolve_workers(0, None)
        assert resolved >= 1
        assert resolve_workers(None, None) == resolved

    def test_auto_capped_by_machine(self):
        assert resolve_workers(0, Machine(cores=1, smt=1)) == 1

    def test_auto_is_the_usable_core_count(self):
        # The kernel's thread pool counts the same cores (affinity, not
        # os.cpu_count()), so the two agree under ``taskset``.
        with mock.patch.object(native, "usable_cores", return_value=1):
            assert ClusteringConfig(num_workers=0).resolved_workers == 1
        with mock.patch.object(native, "usable_cores", return_value=7):
            assert resolve_workers(0, None) == 7

    def test_explicit(self):
        assert resolve_workers(3, None) == 3
        assert ClusteringConfig(num_workers=3).resolved_workers == 3


class TestConvergenceMode:
    def test_none_num_iter_is_convergence(self):
        config = ClusteringConfig(num_iter=None)
        assert config.run_to_convergence
        assert config.iteration_bound == 10_000

    def test_bounded(self):
        config = ClusteringConfig(num_iter=7)
        assert not config.run_to_convergence
        assert config.iteration_bound == 7


class TestDescribe:
    def test_par_cc(self):
        assert ClusteringConfig().describe().startswith("PAR-CC[")

    def test_seq_mod_con(self):
        config = ClusteringConfig(
            objective=Objective.MODULARITY,
            resolution=1.0,
            parallel=False,
            num_iter=None,
        )
        assert config.describe().startswith("SEQ-MOD^CON[")

    def test_options_listed(self):
        tag = ClusteringConfig(mode=Mode.SYNC, refine=False).describe()
        assert "sync" in tag and "no-refine" in tag


class TestWithOptions:
    def test_copy_modified(self):
        base = ClusteringConfig()
        mod = base.with_options(mode=Mode.SYNC)
        assert mod.mode is Mode.SYNC
        assert base.mode is Mode.ASYNC

    def test_validation_applies_to_copy(self):
        with pytest.raises(ConfigError):
            ClusteringConfig().with_options(num_workers=-1)


class TestArgparseRoundTrip:
    """add_args/from_args is the single canonical CLI flag block."""

    def parser(self, **kwargs):
        import argparse

        parser = argparse.ArgumentParser()
        ClusteringConfig.add_args(parser, **kwargs)
        return parser

    def test_defaults_round_trip(self):
        args = self.parser().parse_args([])
        assert ClusteringConfig.from_args(args) == ClusteringConfig()

    def test_every_flag_lands_on_its_field(self):
        args = self.parser().parse_args(
            [
                "--objective", "modularity",
                "--resolution", "0.7",
                "--sequential",
                "--mode", "sync",
                "--frontier", "all",
                "--no-refine",
                "--converge",
                "--workers", "4",
                "--seed", "9",
            ]
        )
        config = ClusteringConfig.from_args(args)
        assert config == ClusteringConfig(
            objective=Objective.MODULARITY,
            resolution=0.7,
            parallel=False,
            mode=Mode.SYNC,
            frontier=Frontier.ALL,
            refine=False,
            num_iter=None,
            num_workers=4,
            seed=9,
        )

    def test_objective_pin_for_correlation_only_subcommands(self):
        parser = self.parser(include_objective=False)
        args = parser.parse_args(["--resolution", "0.05"])
        assert not hasattr(args, "objective")
        config = ClusteringConfig.from_args(
            args, objective=Objective.CORRELATION
        )
        assert config.objective is Objective.CORRELATION
        assert config.resolution == 0.05

    def test_converge_wins_over_num_iter(self):
        args = self.parser().parse_args(["--num-iter", "3", "--converge"])
        assert ClusteringConfig.from_args(args).num_iter is None
