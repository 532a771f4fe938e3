"""ServingGateway units: epochs, requests, coalescing, admission, accounting."""

import numpy as np
import pytest

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.updates import EdgeUpdate
from repro.errors import UpdateError
from repro.graphs.karate import karate_club_graph
from repro.serving import (
    GatewayPolicy,
    LabelEpoch,
    Request,
    ServingGateway,
    label_digest,
    replay_digests,
)
from repro.serving.gateway import RETRY_AFTER_SECONDS

pytestmark = pytest.mark.serving

NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)


def make_clusterer(seed=1):
    config = ClusteringConfig(resolution=0.1, parallel=False, seed=seed)
    return DynamicClusterer.bootstrap(
        karate_club_graph(), config, engine="sequential", guard=NO_GUARD
    )


def make_gateway(policy=None, seed=1):
    clusterer = make_clusterer(seed)
    return ServingGateway(clusterer, policy), clusterer


def write(rid, update, at=0.0):
    return Request.write(rid, update, submitted_at=at)


def read(rid, kind="cluster_of", args=(0,), at=0.0):
    return Request.read(rid, kind, *args, submitted_at=at)


class TestLabelEpoch:
    def test_immutable_snapshot(self):
        labels = np.asarray([0, 0, 1, 1], dtype=np.int64)
        epoch = LabelEpoch(0, labels)
        labels[0] = 9  # mutating the source must not leak into the epoch
        assert epoch.cluster_of(0) == 0
        with pytest.raises((ValueError, RuntimeError)):
            epoch.assignments[0] = 5

    def test_read_ops(self):
        epoch = LabelEpoch(3, np.asarray([0, 0, 1], dtype=np.int64))
        assert epoch.cluster_of(2) == 1
        assert epoch.same(0, 1) and not epoch.same(0, 2)
        assert list(epoch.members(0)) == [0, 1]
        stats = epoch.stats()
        assert stats["num_clusters"] == 2 and stats["epoch"] == 3

    def test_out_of_range_raises(self):
        epoch = LabelEpoch(0, np.zeros(3, dtype=np.int64))
        with pytest.raises(UpdateError):
            epoch.cluster_of(7)

    def test_digest_tracks_content(self):
        a = np.asarray([0, 1, 1], dtype=np.int64)
        assert LabelEpoch(0, a).digest == label_digest(a)
        assert LabelEpoch(0, a).digest != LabelEpoch(
            0, np.asarray([0, 1, 2], dtype=np.int64)
        ).digest


class TestRequestVocabulary:
    def test_klass_partition(self):
        assert read("r1").klass == "read"
        assert write("w1", EdgeUpdate("insert", 0, 9)).klass == "write"

    def test_invalid_kind_rejected(self):
        with pytest.raises(UpdateError):
            Request(request_id="x", kind="nonsense")

    def test_update_requires_payload(self):
        with pytest.raises(UpdateError):
            Request(request_id="x", kind="update")


class TestSnapshotIsolation:
    def test_reads_see_old_epoch_until_commit(self):
        gw, clusterer = make_gateway()
        before = gw.serve_read(read("r0"), now=0.0)
        assert before.epoch == 0
        gw.stage_write(write("w0", EdgeUpdate("insert", 0, 9, 5.0)), 0.0)
        # Staged but uncommitted: reads still answer from epoch 0.
        assert gw.serve_read(read("r1"), 0.0).epoch == 0
        assert gw.epoch.index == 0
        gw.commit(now=1.0)
        after = gw.serve_read(read("r2"), 2.0)
        assert after.epoch == 1
        assert gw.epoch.digest == label_digest(clusterer.state.assignments)

    def test_epoch_log_starts_at_bootstrap(self):
        gw, clusterer = make_gateway()
        assert gw.epoch_log == [gw.epoch.digest]


class TestCoalescing:
    def test_many_staged_one_batch(self):
        gw, clusterer = make_gateway()
        for i, upd in enumerate(
            [
                EdgeUpdate("insert", 0, 9, 1.0),
                EdgeUpdate("insert", 4, 20, 1.0),
                EdgeUpdate("reweight", 0, 1, 2.0),
            ]
        ):
            assert gw.stage_write(write(f"w{i}", upd), 0.0) is None
        responses = gw.commit(now=1.0)
        assert len(responses) == 3
        assert all(r.status == "ok" and r.epoch == 1 for r in responses)
        assert len(gw.committed) == 1
        assert len(gw.committed_batches()[0]) == 3

    def test_max_batch_leaves_excess_staged(self):
        gw, clusterer = make_gateway(GatewayPolicy(max_batch_updates=2))
        for i in range(5):
            gw.stage_write(
                write(f"w{i}", EdgeUpdate("insert", 0, 9 + i, 1.0)), 0.0
            )
        assert len(gw.commit(1.0)) == 2
        assert gw.staged_count == 3
        assert len(gw.commit(2.0)) == 2
        assert len(gw.commit(3.0)) == 1
        assert gw.staged_count == 0

    def test_empty_commit_publishes_nothing(self):
        gw, clusterer = make_gateway()
        assert gw.commit(1.0) == []
        assert gw.epoch.index == 0 and len(gw.epoch_log) == 1


class TestValidation:
    def test_delete_absent_edge_rejected_not_raised(self):
        gw, clusterer = make_gateway()
        gw.stage_write(write("bad", EdgeUpdate("delete", 0, 20)), 0.0)
        gw.stage_write(write("good", EdgeUpdate("insert", 0, 9, 1.0)), 0.0)
        responses = {r.request_id: r for r in gw.commit(1.0)}
        assert responses["bad"].status == "rejected"
        assert "absent edge" in responses["bad"].error
        assert responses["good"].status == "ok"
        # Rejected update excluded from the committed batch log.
        assert len(gw.committed_batches()[0]) == 1

    def test_insert_then_delete_same_cycle_accepted(self):
        gw, clusterer = make_gateway()
        gw.stage_write(write("a", EdgeUpdate("insert", 0, 20, 1.0)), 0.0)
        gw.stage_write(write("b", EdgeUpdate("delete", 0, 20)), 0.0)
        statuses = {r.request_id: r.status for r in gw.commit(1.0)}
        assert statuses == {"a": "ok", "b": "ok"}

    def test_all_rejected_cycle_publishes_no_epoch(self):
        gw, clusterer = make_gateway()
        gw.stage_write(write("x", EdgeUpdate("delete", 0, 15)), 0.0)
        responses = gw.commit(1.0)
        assert [r.status for r in responses] == ["rejected"]
        assert gw.epoch.index == 0 and not gw.committed


class TestAdmission:
    def test_write_queue_shed(self):
        gw, clusterer = make_gateway(GatewayPolicy(write_queue_limit=2))
        assert gw.stage_write(write("a", EdgeUpdate("insert", 0, 9)), 0.0) is None
        assert gw.stage_write(write("b", EdgeUpdate("insert", 0, 10)), 0.0) is None
        shed = gw.stage_write(write("c", EdgeUpdate("insert", 0, 11)), 0.5)
        assert shed is not None and shed.status == "shed"
        assert shed.retry_after == RETRY_AFTER_SECONDS
        assert gw.counts[("write", "shed")] == 1

    def test_stats_accounting_invariant(self):
        gw, clusterer = make_gateway(GatewayPolicy(write_queue_limit=2))
        requests = [
            write("a", EdgeUpdate("insert", 0, 9)),
            write("b", EdgeUpdate("delete", 0, 20)),
            write("c", EdgeUpdate("insert", 0, 10)),
        ]
        for req in requests:
            gw.note_submit(req)
            gw.stage_write(req, 0.0)
        gw.note_submit(read("r"))
        gw.serve_read(read("r"), 0.0)
        gw.commit(1.0)
        stats = gw.stats()
        for klass in ("read", "write"):
            row = stats["requests"][klass]
            resolved = sum(row[s] for s in ("ok", "shed", "expired", "rejected"))
            pending = stats["staged"] if klass == "write" else 0
            assert row["submitted"] == resolved + pending


class TestReplay:
    def test_single_batch_replay_identical(self):
        gw, clusterer = make_gateway()
        config = clusterer.config
        graph = karate_club_graph()
        labels0 = gw.epoch.assignments.copy()
        gw.stage_write(write("a", EdgeUpdate("insert", 0, 9, 2.0)), 0.0)
        gw.stage_write(write("b", EdgeUpdate("delete", 0, 2)), 0.0)
        gw.commit(1.0)
        digests = replay_digests(
            graph,
            labels0,
            config,
            gw.committed_batches(),
            engine="sequential",
            guard=NO_GUARD,
        )
        assert digests == gw.epoch_log
