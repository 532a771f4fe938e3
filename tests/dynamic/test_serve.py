"""Single-client ops on the serving gateway: reads, commits, save, audit."""

import numpy as np
import pytest

from repro.cli import _commit_staged
from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.snapshot import SnapshotStore
from repro.dynamic.updates import EdgeUpdate
from repro.errors import UpdateError
from repro.graphs.karate import karate_club_graph
from repro.serving import Request, ServingGateway

pytestmark = pytest.mark.dynamic

NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)


def make_clusterer(seed=1):
    config = ClusteringConfig(resolution=0.1, seed=seed)
    return DynamicClusterer.bootstrap(
        karate_club_graph(), config, guard=NO_GUARD
    )


def write(rid, update):
    return Request.write(rid, update)


def read(gateway, kind, *args):
    return gateway.serve_read(Request.read(0, kind, *args), 0.0).value


def stage(gateway, *updates):
    for rid, update in enumerate(updates):
        assert gateway.stage_write(write(rid, update), 0.0) is None


def insert_commit_save(gateway, store):
    """One write, one commit and one save; the labels and digests it left."""
    stage(gateway, EdgeUpdate("insert", 0, 9, 1.0))
    (response,) = gateway.commit(0.0)
    assert response.status == "ok"
    gateway.save(store)
    assert gateway.audit() == []
    return gateway.clusterer.state.assignments.copy(), list(gateway.epoch_log)


class TestQueries:
    def test_get_and_same(self):
        dc = make_clusterer()
        gateway = ServingGateway(dc)
        labels = dc.state.assignments
        assert read(gateway, "cluster_of", 0) == labels[0]
        assert read(gateway, "same", 0, 1) == (labels[0] == labels[1])
        assert read(gateway, "same", 0, 33) == (labels[0] == labels[33])

    def test_members_and_stats(self):
        dc = make_clusterer()
        gateway = ServingGateway(dc)
        cluster = dc.state.assignments[0]
        members = read(gateway, "members", cluster)
        assert 0 in members.tolist()
        assert np.all(dc.state.assignments[members] == cluster)
        stats = gateway.stats()["clusterer"]
        assert stats["num_vertices"] == 34
        assert stats["batches_applied"] == 0

    def test_audit_clean(self):
        assert ServingGateway(make_clusterer()).audit() == []


class TestUpdatesAndCommit:
    def test_commit_applies_staged_batch(self):
        dc = make_clusterer()
        gateway = ServingGateway(dc)
        stage(
            gateway,
            EdgeUpdate("insert", 0, 9, 1.0),
            EdgeUpdate("reweight", 0, 1, 2.0),
            EdgeUpdate("delete", 0, 2),
        )
        responses = gateway.commit(0.0)
        assert [r.status for r in responses] == ["ok"] * 3
        assert {r.epoch for r in responses} == {1}
        report = gateway.committed[-1]["report"]
        assert report.batch_index == 0
        assert report.num_updates == 3
        assert report.seed_size == 4
        assert gateway.audit() == []
        assert dc.batches_applied == 1
        assert gateway.commit(0.0) == []  # nothing staged
        # Reads after the commit answer from the newly published epoch.
        response = gateway.serve_read(Request.read(9, "cluster_of", 9), 0.0)
        assert response.epoch == 1
        assert response.value == dc.state.assignments[9]

    def test_commits_are_deterministic(self, tmp_path):
        first = insert_commit_save(
            ServingGateway(make_clusterer()), SnapshotStore(tmp_path / "a")
        )
        second = insert_commit_save(
            ServingGateway(make_clusterer()), SnapshotStore(tmp_path / "b")
        )
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_save_rotates_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        gateway = ServingGateway(make_clusterer())
        assert gateway.save(store).name == "snap-a.npz"
        stage(gateway, EdgeUpdate("insert", 0, 9, 1.0))
        gateway.commit(0.0)
        assert gateway.save(store).name == "snap-b.npz"
        assert store.latest().name == "snap-b.npz"


class TestErrors:
    def test_rejected_write_raises_after_valid_writes_commit(self):
        # The gateway rejects the write at commit time; the valid write of
        # the same cycle still committed before the error is raised.
        dc = make_clusterer()
        gateway = ServingGateway(dc)
        stage(gateway, EdgeUpdate("insert", 0, 9, 1.0), EdgeUpdate("delete", 0, 20))
        with pytest.raises(UpdateError, match="absent"):
            _commit_staged(gateway, 0.0)
        assert dc.batches_applied == 1
        assert dc.overlay.edge_weight(0, 9) == 1.0


class TestServingTelemetry:
    """SLO instrumentation on the gateway: per-op latency + staleness."""

    def make_instrumented(self, seed=1):
        from repro.obs.instrument import Instrumentation

        instr = Instrumentation()
        config = ClusteringConfig(resolution=0.1, seed=seed)
        dc = DynamicClusterer.bootstrap(
            karate_club_graph(), config, guard=NO_GUARD,
            instrumentation=instr,
        )
        return dc, instr

    def latency_counts(self, instr):
        from repro.obs.instrument import M_SERVE_LATENCY

        return {
            s["labels"]["op"]: s["count"]
            for s in instr.metrics.collect()
            if s["metric"] == M_SERVE_LATENCY
        }

    def test_instrumented_ops_populate_per_op_histograms(self, tmp_path):
        dc, instr = self.make_instrumented()
        gateway = ServingGateway(dc)
        gateway.serve_read(Request.read(0, "cluster_of", 0), 0.0)
        gateway.serve_read(Request.read(1, "same", 0, 1), 0.0)
        gateway.stage_write(write(2, EdgeUpdate("insert", 0, 9, 1.0)), 0.0)
        gateway.commit(0.0)
        gateway.save(SnapshotStore(tmp_path))
        gateway.audit()
        counts = self.latency_counts(instr)
        assert counts["read"] == 2
        assert counts["write"] == 1
        assert counts["commit"] == 1
        assert counts["save"] == 1
        assert counts["audit"] == 1

    def test_disabled_instrumentation_registers_nothing(self):
        from repro.obs.instrument import Instrumentation

        dc = make_clusterer()
        gateway = ServingGateway(dc)
        gateway.serve_read(Request.read(0, "cluster_of", 0), 0.0)
        gateway.stage_write(write(1, EdgeUpdate("insert", 0, 9, 1.0)), 0.0)
        gateway.commit(0.0)
        # The no-op Instrumentation has an empty registry: the op path
        # never touched perf_counter or a histogram.
        assert isinstance(dc.instr, Instrumentation)
        assert not dc.instr.enabled
        assert dc.instr.metrics.collect() == []

    def test_staleness_gauge_tracks_apply_and_save(self, tmp_path):
        from repro.obs.instrument import M_SERVE_STALENESS

        dc, instr = self.make_instrumented()
        gateway = ServingGateway(dc)

        def staleness():
            for s in instr.metrics.collect():
                if s["metric"] == M_SERVE_STALENESS:
                    return s["value"]
            return None

        gateway.stage_write(write(0, EdgeUpdate("insert", 0, 9, 2.0)), 0.0)
        gateway.commit(0.0)
        assert staleness() == 1.0
        gateway.stage_write(write(1, EdgeUpdate("delete", 0, 9)), 0.0)
        gateway.commit(0.0)
        assert staleness() == 2.0
        gateway.save(SnapshotStore(tmp_path))
        assert staleness() == 0.0
        assert dc.stats()["updates_since_save"] == 0

    def test_labels_and_digests_identical_with_and_without_telemetry(
        self, tmp_path
    ):
        plain = insert_commit_save(
            ServingGateway(make_clusterer()), SnapshotStore(tmp_path / "a")
        )
        dc, instr = self.make_instrumented()
        timed = insert_commit_save(
            ServingGateway(dc), SnapshotStore(tmp_path / "b")
        )
        assert instr.metrics.collect()
        assert np.array_equal(plain[0], timed[0])
        assert plain[1] == timed[1]


class TestLifecycle:
    """close() is idempotent; ops on a closed gateway raise typed errors."""

    def test_double_close_is_noop(self):
        gateway = ServingGateway(make_clusterer())
        gateway.close()
        gateway.close()  # must not raise
        assert gateway.closed

    def test_exit_after_explicit_close(self):
        with ServingGateway(make_clusterer()) as gateway:
            gateway.close()
        assert gateway.closed  # __exit__ re-close was a no-op

    def test_ops_after_close_raise_typed_error(self, tmp_path):
        from repro.errors import ServerClosedError

        gateway = ServingGateway(make_clusterer())
        gateway.stage_write(write(0, EdgeUpdate("insert", 0, 9)), 0.0)
        gateway.close()
        for op in (
            lambda: gateway.serve_read(Request.read(1, "cluster_of", 0), 0.0),
            lambda: gateway.serve_read(Request.read(2, "stats"), 0.0),
            lambda: gateway.stage_write(write(3, EdgeUpdate("insert", 0, 10)), 0.0),
            lambda: gateway.commit(0.0),
            lambda: gateway.audit(),
            lambda: gateway.save(SnapshotStore(tmp_path)),
        ):
            with pytest.raises(ServerClosedError):
                op()

    def test_server_closed_error_is_repro_error(self):
        from repro.errors import ReproError, ServerClosedError

        assert issubclass(ServerClosedError, ReproError)
