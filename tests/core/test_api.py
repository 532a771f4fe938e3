import numpy as np
import pytest

from repro.core.api import cluster, correlation_clustering, modularity_clustering
from repro.core.config import ClusteringConfig, Mode, Objective
from repro.core.objective import (
    cc_objective,
    lambdacc_objective,
    modularity,
    modularity_graph,
)
from repro.graphs.builders import graph_from_edges


class TestCorrelationClustering:
    def test_karate_smoke(self, karate):
        result = correlation_clustering(karate, resolution=0.1, seed=1)
        assert result.assignments.shape == (34,)
        assert result.num_clusters >= 2
        assert result.objective > 0

    def test_reported_objective_matches_recomputation(self, karate):
        result = correlation_clustering(karate, resolution=0.1, seed=1)
        assert result.objective == pytest.approx(
            cc_objective(karate, result.assignments, 0.1)
        )

    def test_labels_dense(self, karate):
        result = correlation_clustering(karate, resolution=0.3, seed=0)
        labels = np.unique(result.assignments)
        assert np.array_equal(labels, np.arange(labels.size))

    def test_sequential_variant(self, karate):
        result = correlation_clustering(karate, resolution=0.1, parallel=False, seed=1)
        assert not result.config.parallel
        assert result.objective > 0

    def test_convergence_variant_tagged(self, karate):
        result = correlation_clustering(
            karate, resolution=0.1, parallel=False, num_iter=None, seed=1
        )
        assert "^CON" in result.config.describe()

    def test_empty_graph_rejected(self):
        g = graph_from_edges([], num_vertices=0)
        with pytest.raises(ValueError):
            correlation_clustering(g)

    def test_modularity_always_reported(self, karate):
        result = correlation_clustering(karate, resolution=0.1, seed=1)
        assert result.modularity == pytest.approx(
            modularity(karate, result.assignments, gamma=1.0)
        )


class TestModularityClustering:
    def test_karate_quality(self, karate):
        result = modularity_clustering(karate, gamma=1.0, seed=1)
        # Known-good modularity territory for karate under the paper's
        # (diagonal-free) definition: Newman-optimal ~0.42 plus the
        # constant ~0.048.
        assert result.modularity > 0.4
        assert 2 <= result.num_clusters <= 10

    def test_reported_modularity_matches_recomputation(self, karate):
        result = modularity_clustering(karate, gamma=1.3, seed=1)
        assert result.modularity == pytest.approx(
            modularity(karate, result.assignments, gamma=1.3)
        )

    def test_gamma_controls_granularity(self, small_planted):
        g = small_planted.graph
        low = modularity_clustering(g, gamma=0.3, seed=0)
        high = modularity_clustering(g, gamma=12.0, seed=0)
        assert low.num_clusters <= high.num_clusters

    def test_effective_lambda(self, karate):
        result = modularity_clustering(karate, gamma=2.0, seed=0)
        assert result.effective_lambda == pytest.approx(2.0 / (2 * 78))


class TestScoring:
    """The run's objective and modularity are scored from one
    intra-cluster weight; both must equal a from-scratch recomputation
    bit for bit."""

    @staticmethod
    def _weighted_graph_with_self_loops():
        rng = np.random.default_rng(11)
        edges = rng.integers(0, 40, size=(160, 2))
        edges[:12, 1] = edges[:12, 0]  # self-loops
        weights = rng.random(160) * 10.0 ** rng.integers(-3, 3, size=160)
        graph = graph_from_edges(edges, weights=weights, num_vertices=40)
        assert graph.self_loops.any()
        return graph

    @pytest.mark.parametrize("objective", [Objective.CORRELATION, Objective.MODULARITY])
    def test_objective_and_modularity_match_recomputation(self, objective):
        graph = self._weighted_graph_with_self_loops()
        config = ClusteringConfig(resolution=0.3, seed=2, objective=objective)
        result = cluster(graph, config)
        if objective is Objective.CORRELATION:
            scored, gamma = graph, 1.0
        else:
            scored, gamma = modularity_graph(graph), 0.3
        assert result.f_objective == lambdacc_objective(
            scored, result.assignments, result.effective_lambda
        )
        assert result.modularity == modularity(graph, result.assignments, gamma=gamma)


class TestClusterResult:
    def test_clusters_partition_vertices(self, karate):
        result = correlation_clustering(karate, resolution=0.2, seed=2)
        members = np.concatenate(result.clusters())
        assert np.array_equal(np.sort(members), np.arange(34))

    def test_sim_time_decreases_with_workers(self, small_planted):
        result = cluster(
            small_planted.graph, ClusteringConfig(resolution=0.05, seed=1)
        )
        assert result.sim_time(60) < result.sim_time(2)

    def test_sequential_sim_time_uses_one_worker(self, karate):
        result = correlation_clustering(karate, resolution=0.1, parallel=False, seed=1)
        assert result.sim_time() == pytest.approx(result.sim_time(1))

    def test_memory_overhead_at_least_one(self, karate):
        result = correlation_clustering(karate, resolution=0.1, seed=1)
        assert result.memory_overhead >= 1.0

    def test_summary_mentions_variant(self, karate):
        result = correlation_clustering(karate, resolution=0.1, seed=1)
        assert "PAR-CC" in result.summary()

    def test_rounds_counted(self, karate):
        result = correlation_clustering(karate, resolution=0.1, seed=1)
        assert result.rounds >= result.num_levels


class TestLambdaEffect:
    def test_resolution_controls_cluster_count(self, small_planted):
        """Lower resolutions produce fewer clusters (Section 4.1)."""
        g = small_planted.graph
        few = correlation_clustering(g, resolution=0.01, seed=0)
        many = correlation_clustering(g, resolution=0.9, seed=0)
        assert few.num_clusters < many.num_clusters


class TestSyncVsAsync:
    def test_async_objective_at_least_sync(self, small_planted):
        """Section 4.1: asynchronous improves the objective over
        synchronous (1.29–156% in the paper)."""
        g = small_planted.graph
        lam = 0.85
        sync = correlation_clustering(g, resolution=lam, mode=Mode.SYNC, seed=3)
        async_ = correlation_clustering(g, resolution=lam, mode=Mode.ASYNC, seed=3)
        assert async_.objective >= sync.objective
        assert async_.objective > 0


class TestSeedRecord:
    """A run without a seed records the one it drew, and replays from it."""

    def test_unseeded_run_records_a_concrete_seed(self, karate):
        config = ClusteringConfig(resolution=0.1)
        result = cluster(karate, config)
        assert isinstance(result.seed, int) and result.seed >= 0
        assert result.stats_dict()["seed"] == result.seed
        assert config.seed is None
        assert result.config is config

    def test_recorded_seed_replays_bit_for_bit(self, karate):
        first = cluster(karate, ClusteringConfig(resolution=0.05))
        replay = cluster(karate, ClusteringConfig(resolution=0.05, seed=first.seed))
        assert np.array_equal(first.assignments, replay.assignments)
        assert first.f_objective == replay.f_objective
        assert replay.seed == first.seed

    def test_seeded_run_keeps_its_seed(self, karate):
        config = ClusteringConfig(resolution=0.1, seed=7)
        result = cluster(karate, config)
        assert result.seed == 7 and result.stats_dict()["seed"] == 7
        again = cluster(karate, config)
        assert np.array_equal(result.assignments, again.assignments)

    def test_resumed_unseeded_run_reports_the_checkpoints_seed(
        self, karate, tmp_path
    ):
        from repro.core.options import RunOptions
        from repro.resilience import ResiliencePolicy

        path = str(tmp_path / "ck.npz")
        config = ClusteringConfig(resolution=0.05)
        first = cluster(
            karate, config,
            RunOptions(resilience=ResiliencePolicy(checkpoint_path=path)),
        )
        resumed = cluster(
            karate, config,
            RunOptions(resilience=ResiliencePolicy(resume_from=path)),
        )
        assert resumed.seed == first.seed
        assert np.array_equal(resumed.assignments, first.assignments)

    def test_traced_run_span_carries_the_drawn_seed(self, karate):
        from repro.core.options import RunOptions
        from repro.obs.instrument import Instrumentation
        from repro.obs.schema import validate_trace_records

        instr = Instrumentation()
        result = cluster(
            karate,
            ClusteringConfig(resolution=0.1),
            RunOptions(instrumentation=instr),
        )
        records = instr.tracer.records
        (run,) = [
            r for r in records if r.get("type") == "span" and r["name"] == "run"
        ]
        assert isinstance(run["attrs"]["seed"], int)
        assert run["attrs"]["seed"] == result.seed
        assert validate_trace_records(records) == []

    def test_supervised_attempts_share_the_drawn_seed(self, karate):
        from repro.core.options import RunOptions
        from repro.supervisor import RunSupervisor

        config = ClusteringConfig(resolution=0.1)
        result = cluster(karate, config, RunOptions(supervisor=RunSupervisor()))
        assert isinstance(result.seed, int)
        assert result.config.seed == result.seed
        assert config.seed is None
