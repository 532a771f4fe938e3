"""DynamicClusterer: incremental bookkeeping, replay identity, drift guard."""

import numpy as np
import pytest

from repro.core.config import ClusteringConfig, Objective
from repro.core.engines import run_engine_restricted
from repro.core.frontier import seed_frontier
from repro.core import objective as objective_module
from repro.core.objective import lambdacc_objective
from repro.core.state import ClusterState
from repro.dynamic import clusterer as clusterer_module
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.errors import ConfigError, UpdateError
from repro.graphs.builders import graph_from_edges
from repro.graphs.karate import karate_club_graph
from repro.resilience.audit import StateAuditor
from repro.resilience.checkpoint import capture_rng, restore_rng
from repro.serving.epoch import LabelEpoch
from repro.utils.rng import make_rng

pytestmark = pytest.mark.dynamic

RESOLUTION = 0.1

#: Pure-incremental guard: no periodic recompute, no cascade trigger.
NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)


def make_clusterer(engine=None, guard=NO_GUARD, seed=1):
    config = ClusteringConfig(resolution=RESOLUTION, seed=seed)
    return DynamicClusterer.bootstrap(
        karate_club_graph(), config, engine=engine, guard=guard
    )


def materialize(graph, batch):
    """Independently apply ``batch``'s edge semantics to an edge dict and
    build the updated graph from scratch (no overlay, no compaction)."""
    src, dst, wts = graph.edge_list()
    edges = {(int(u), int(v)): float(w) for u, v, w in zip(src, dst, wts)}
    for upd in batch:
        key = (min(upd.u, upd.v), max(upd.u, upd.v))
        if upd.op == "insert":
            edges[key] = edges.get(key, 0.0) + upd.weight
        elif upd.op == "delete":
            del edges[key]
        else:
            edges[key] = upd.weight
    pairs = sorted(edges)
    n = max([graph.num_vertices] + [max(key) + 1 for key in pairs])
    return graph_from_edges(
        np.asarray(pairs, dtype=np.int64),
        weights=np.asarray([edges[key] for key in pairs]),
        num_vertices=n,
    )


MIXED_BATCH = [
    EdgeUpdate("insert", 0, 9, 1.0),
    EdgeUpdate("delete", 0, 2),
    EdgeUpdate("reweight", 0, 1, 3.0),
    EdgeUpdate("insert", 15, 20, 2.0),
]


class TestConstruction:
    def test_modularity_rejected(self):
        config = ClusteringConfig(objective=Objective.MODULARITY, resolution=1.0)
        with pytest.raises(ConfigError, match="correlation"):
            DynamicClusterer(karate_club_graph(), np.zeros(34, np.int64), config)

    def test_bootstrap_matches_exact_objective(self):
        dc = make_clusterer()
        assert dc.f_objective == pytest.approx(dc.exact_objective(), abs=1e-9)
        assert dc.audit() == []

    def test_engine_default_follows_parallel_flag(self):
        par = ClusteringConfig(resolution=RESOLUTION, seed=1)
        seq = ClusteringConfig(resolution=RESOLUTION, seed=1, parallel=False)
        g = karate_club_graph()
        a = np.arange(34, dtype=np.int64)
        assert DynamicClusterer(g, a, par).engine_name == "relaxed"
        assert DynamicClusterer(g, a, seq).engine_name == "sequential"


class TestApply:
    def test_incremental_objective_stays_exact(self):
        dc = make_clusterer()
        batches = [
            [EdgeUpdate("insert", 0, 9, 1.0)],
            [EdgeUpdate("delete", 0, 2)],
            [EdgeUpdate("reweight", 0, 1, 2.5)],
            [
                EdgeUpdate("insert", 0, 9, 1.0),
                EdgeUpdate("delete", 0, 3),
                EdgeUpdate("reweight", 0, 1, 3.0),
                EdgeUpdate("insert", 15, 20, 2.0),
            ],
        ]
        for updates in batches:
            dc.apply(UpdateBatch(updates))
            assert dc.f_objective == pytest.approx(
                dc.exact_objective(), abs=1e-9
            )
            assert dc.audit() == []

    def test_report_contents(self):
        dc = make_clusterer()
        report = dc.apply(UpdateBatch(MIXED_BATCH))
        assert report.num_updates == 4
        assert report.op_counts == {"insert": 2, "delete": 1, "reweight": 1}
        assert report.seed_size == 6  # {0, 1, 2, 9, 15, 20}
        assert report.candidate_evaluations == sum(report.frontier_sizes)
        assert report.f_objective == pytest.approx(dc.f_objective)
        payload = report.as_dict()
        assert payload["seed_size"] == 6
        assert payload["escalated"] is None

    def test_counters_accumulate(self):
        dc = make_clusterer()
        dc.apply(UpdateBatch(MIXED_BATCH))
        dc.apply(UpdateBatch([EdgeUpdate("delete", 0, 9)]))
        assert dc.batches_applied == 2
        assert dc.updates_applied == {"insert": 2, "delete": 2, "reweight": 1}
        stats = dc.stats()
        assert stats["batches_applied"] == 2
        assert stats["objective"] == pytest.approx(2.0 * dc.f_objective)

    def test_insert_accumulates_weight(self):
        dc = make_clusterer()
        dc.apply(UpdateBatch([EdgeUpdate("insert", 0, 1, 2.0)]))
        assert dc.overlay.edge_weight(0, 1) == 3.0  # karate weight 1 + 2

    def test_delete_absent_edge_rejected(self):
        dc = make_clusterer()
        with pytest.raises(UpdateError, match="absent"):
            dc.apply(UpdateBatch([EdgeUpdate("delete", 0, 9)]))

    def test_reweight_absent_edge_rejected(self):
        dc = make_clusterer()
        with pytest.raises(UpdateError, match="absent"):
            dc.apply(UpdateBatch([EdgeUpdate("reweight", 0, 9, 1.0)]))

    def test_rejected_batch_leaves_overlay_untouched(self):
        dc = make_clusterer()
        batch = UpdateBatch(
            [EdgeUpdate("insert", 0, 9, 1.0), EdgeUpdate("delete", 0, 20)]
        )
        assert dc.validate(batch) == [
            None, "cannot delete absent edge (0, 20)"
        ]
        with pytest.raises(UpdateError, match="absent"):
            dc.apply(batch)
        assert dc.overlay.edge_weight(0, 9) == 0.0
        assert dc.batches_applied == 0

    def test_empty_batch_is_noop(self):
        dc = make_clusterer()
        before = dc.state.assignments.copy()
        report = dc.apply(UpdateBatch())
        assert report.moves == 0
        assert np.array_equal(dc.state.assignments, before)

    def test_new_vertices_join_as_singletons(self):
        dc = make_clusterer()
        dc.apply(UpdateBatch([EdgeUpdate("insert", 33, 40, 1.0)]))
        assert dc.num_vertices == 41
        assert dc.state.assignments.size == 41
        assert dc.f_objective == pytest.approx(dc.exact_objective(), abs=1e-9)
        assert dc.audit() == []
        # Vertices 34..39 have no edges; they stay in their own clusters.
        for v in range(34, 40):
            labels = dc.state.assignments
            assert np.flatnonzero(labels == labels[v]).tolist() == [v]


class TestReplayIdentity:
    """Acceptance: apply() == from-scratch restricted run, bit for bit."""

    @pytest.mark.parametrize("engine", ["relaxed", "sequential"])
    def test_batch_replay_is_bit_identical(self, engine):
        dc = make_clusterer(engine=engine)
        batch = UpdateBatch(MIXED_BATCH)
        pre_assignments = dc.state.assignments.copy()
        pre_rng = capture_rng(dc.rng)

        dc.apply(batch)

        # Independently materialize the updated graph and re-run the same
        # engine from the same partition, frontier, and RNG stream.
        updated = materialize(karate_club_graph(), batch)
        grown = updated.num_vertices - pre_assignments.size
        replay_assignments = np.concatenate(
            [
                pre_assignments,
                np.arange(
                    pre_assignments.size, updated.num_vertices, dtype=np.int64
                ),
            ]
        ) if grown else pre_assignments
        state = ClusterState.from_assignments(updated, replay_assignments)
        rng = make_rng(dc.config.seed)
        restore_rng(rng, pre_rng)
        run_engine_restricted(
            updated,
            state,
            RESOLUTION,
            dc.config,
            engine=engine,
            frontier=seed_frontier(updated, batch.touched_vertices()),
            rng=rng,
        )

        assert np.array_equal(dc.state.assignments, state.assignments)
        assert np.array_equal(dc.state.cluster_weights, state.cluster_weights)
        assert np.array_equal(dc.state.cluster_sizes, state.cluster_sizes)
        assert dc.f_objective == pytest.approx(
            lambdacc_objective(updated, state.assignments, RESOLUTION), abs=1e-9
        )

        auditor = StateAuditor()
        assert auditor.verify_state(dc.graph, dc.state, RESOLUTION) == []
        # verify_result expects dense result labels; the live state keeps
        # engine slot ids, so densify (objective is renaming-invariant).
        dense = np.unique(dc.state.assignments, return_inverse=True)[1]
        assert (
            auditor.verify_result(
                dc.graph, dense, RESOLUTION, dc.exact_objective()
            )
            == []
        )


class TestSeedRecord:
    """A session without a seed keeps the one it drew, and replays from it."""

    BATCHES = [
        [EdgeUpdate("insert", 0, 9, 1.0), EdgeUpdate("delete", 0, 2)],
        [EdgeUpdate("insert", 15, 20, 2.0), EdgeUpdate("reweight", 0, 1, 3.0)],
        [EdgeUpdate("insert", 5, 30, 1.5)],
    ]

    def _session(self, seed):
        dc = make_clusterer(seed=seed)
        labels = [dc.state.assignments.copy()]
        for updates in self.BATCHES:
            dc.apply(UpdateBatch(updates))
            labels.append(dc.state.assignments.copy())
        return dc, labels

    def test_unseeded_session_replays_from_its_recorded_seed(self):
        first, first_labels = self._session(None)
        seed = first.config.seed
        assert isinstance(seed, int) and seed >= 0
        again, again_labels = self._session(seed)
        assert again.config.seed == seed
        for got, want in zip(again_labels, first_labels):
            assert np.array_equal(got, want)

    def test_unseeded_construction_resolves_its_seed(self):
        config = ClusteringConfig(resolution=RESOLUTION)
        labels = np.arange(34, dtype=np.int64)
        dc = DynamicClusterer(karate_club_graph(), labels, config)
        assert isinstance(dc.config.seed, int)
        assert config.seed is None
        assert capture_rng(dc.rng) == capture_rng(make_rng(dc.config.seed))


class TestDriftGuard:
    def test_periodic_recompute_resyncs(self):
        dc = make_clusterer(guard=DriftGuard(recompute_every=1))
        report = dc.apply(UpdateBatch([EdgeUpdate("insert", 0, 9, 1.0)]))
        assert report.drift is not None
        assert report.drift <= 1e-9
        assert report.escalated is None
        assert dc.escalations == 0
        assert dc.last_drift == report.drift

    def test_guard_recomputes_each_term_once(self, monkeypatch):
        dc = make_clusterer(guard=DriftGuard(recompute_every=1))
        calls = []
        for name in ("intra_cluster_edge_weight", "cluster_weight_penalty"):
            real = getattr(objective_module, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            for module in (objective_module, clusterer_module):
                monkeypatch.setattr(module, name, counted)
        for edge in [(0, 9), (5, 20)]:
            calls.clear()
            report = dc.apply(UpdateBatch([EdgeUpdate("insert", *edge, 1.0)]))
            assert report.drift is not None
            # One pass per term: the drift check and the resync share it.
            assert sorted(calls) == [
                "cluster_weight_penalty", "intra_cluster_edge_weight"
            ]
            exact = lambdacc_objective(dc.graph, dc.state.assignments, RESOLUTION)
            assert dc.f_objective == exact == dc.exact_objective()

    def test_objective_drift_escalates(self):
        dc = make_clusterer(guard=DriftGuard(recompute_every=1, max_drift=1e-6))
        dc._intra += 5.0  # corrupt the incremental ledger
        report = dc.apply(UpdateBatch([EdgeUpdate("insert", 0, 9, 1.0)]))
        assert report.escalated == "objective-drift"
        assert dc.escalations == 1
        # Escalation rebuilt the partition and resynced the ledger.
        assert dc.f_objective == pytest.approx(dc.exact_objective(), abs=1e-9)
        assert dc.audit() == []
        assert dc.last_drift == 0.0

    def test_frontier_growth_escalates(self):
        guard = DriftGuard(recompute_every=0, max_frontier_fraction=0.05)
        dc = make_clusterer(guard=guard)
        # Six touched endpoints out of 34 vertices > 5% -> cascade trigger.
        report = dc.apply(UpdateBatch(MIXED_BATCH))
        assert report.escalated == "frontier-growth"
        assert dc.escalations == 1
        assert dc.audit() == []


class TestServingFacade:
    """Clients read a clusterer through the epoch the gateway publishes."""

    @staticmethod
    def publish(dc):
        return LabelEpoch(0, dc.state.assignments, f_objective=dc.f_objective)

    def test_cluster_of_range_check(self):
        epoch = self.publish(make_clusterer())
        with pytest.raises(UpdateError, match="out of range"):
            epoch.cluster_of(34)
        with pytest.raises(UpdateError, match="out of range"):
            epoch.cluster_of(-1)

    def test_assignments_returns_copy(self):
        dc = make_clusterer()
        epoch = self.publish(dc)
        dc.state.assignments[:] = 0
        assert epoch.assignments.max() > 0

    def test_members_matches_assignments(self):
        dc = make_clusterer()
        epoch = self.publish(dc)
        c = epoch.cluster_of(0)
        members = epoch.members(c)
        assert 0 in members
        assert np.all(dc.state.assignments[members] == c)
