"""Scripted sessions and single-client ops on the serving gateway."""

import pytest

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.snapshot import SnapshotStore
from repro.dynamic.updates import EdgeUpdate
from repro.errors import UpdateError
from repro.graphs.karate import karate_club_graph
from repro.serving import Request, ServingGateway
from repro.serving.session import run_session

pytestmark = pytest.mark.dynamic

NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)


def make_clusterer(seed=1):
    config = ClusteringConfig(resolution=0.1, seed=seed)
    return DynamicClusterer.bootstrap(
        karate_club_graph(), config, guard=NO_GUARD
    )


def session(script, store=None, dc=None):
    """Run ``script`` on a fresh gateway over ``dc`` (default: new karate)."""
    gateway = ServingGateway(dc if dc is not None else make_clusterer())
    return run_session(gateway, script, store)


def write(rid, update):
    return Request.write(rid, update)


class TestQueries:
    def test_get_and_same(self):
        dc = make_clusterer()
        out = session(["get 0", "same 0 1", "same 0 33"], dc=dc)
        assert out[0] == f"cluster_of(0) = {dc.state.assignments[0]}"
        assert out[1].startswith("same(0, 1) = ")
        assert out[2].startswith("same(0, 33) = ")

    def test_members_and_stats(self):
        dc = make_clusterer()
        out = session([f"members {dc.state.assignments[0]}", "stats"], dc=dc)
        assert out[0].startswith("members(")
        assert "num_vertices=34" in out[1]
        assert "batches_applied=0" in out[1]
        # Wall/sim seconds stay out of the transcript (determinism).
        assert "sim" not in out[1]

    def test_comments_and_blanks_skipped(self):
        assert session(["# nothing", "", "   "]) == []

    def test_audit_clean(self):
        assert session(["audit"]) == ["audit: clean"]


class TestUpdatesAndCommit:
    def test_commit_applies_staged_batch(self):
        dc = make_clusterer()
        out = session(
            ["insert 0 9", "reweight 0 1 2.0", "delete 0 2", "commit", "audit"],
            dc=dc,
        )
        assert out[0] == "staged insert (0, 9) w=1"
        assert out[1] == "staged reweight (0, 1) w=2"
        assert out[2] == "staged delete (0, 2)"
        assert out[3].startswith("commit[0]: updates=3 seed=4 ")
        assert out[4] == "audit: clean"
        assert dc.batches_applied == 1
        # Reads after the commit answer from the newly published epoch.
        (line,) = session(["get 9"], dc=dc)
        assert line == f"cluster_of(9) = {dc.state.assignments[9]}"

    def test_transcript_is_deterministic(self):
        script = ["insert 0 9", "commit", "get 9", "stats"]
        assert session(script) == session(script)

    def test_uncommitted_warning(self):
        dc = make_clusterer()
        out = session(["insert 0 9", "commit", "commit"], dc=dc)
        assert out[-1] == "commit: nothing staged"
        out = session(["insert 0 10"], dc=dc)
        assert out[-1] == "warning: 1 staged updates never committed"
        assert dc.batches_applied == 1

    def test_save_requires_store(self):
        with pytest.raises(UpdateError, match="snapshot store"):
            session(["save"])

    def test_save_rotates_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        out = session(["save", "insert 0 9", "commit", "save"], store)
        assert out[0] == "saved snap-a.npz"
        assert out[3] == "saved snap-b.npz"
        assert store.latest().name == "snap-b.npz"


class TestErrors:
    def test_unknown_command_reports_line(self):
        with pytest.raises(UpdateError, match="line 2.*frobnicate"):
            session(["get 0", "frobnicate"])

    def test_bad_arity(self):
        with pytest.raises(UpdateError, match="argument"):
            session(["get 0 1"])
        with pytest.raises(UpdateError, match="commit takes no"):
            session(["commit now"])
        with pytest.raises(UpdateError, match="insert takes"):
            session(["insert 0"])

    def test_bad_integers(self):
        with pytest.raises(UpdateError, match="line 1"):
            session(["get zero"])

    def test_update_error_carries_script_context(self):
        # The gateway rejects the write at commit time, so the commit line
        # is blamed; the valid write of the same cycle still committed.
        dc = make_clusterer()
        with pytest.raises(UpdateError, match="line 3.*absent"):
            session(["insert 0 9", "delete 0 20", "commit"], dc=dc)
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

    def test_transcripts_identical_with_and_without_telemetry(self, tmp_path):
        script = ["get 0", "insert 0 9", "commit", "save", "stats", "audit"]
        plain = session(script, SnapshotStore(tmp_path / "a"))
        dc, _ = self.make_instrumented()
        timed = session(script, SnapshotStore(tmp_path / "b"), dc=dc)
        assert plain == timed

    def test_run_session_accepts_prebuilt_server(self, tmp_path):
        gateway = ServingGateway(make_clusterer())
        out = run_session(gateway, ["save"], SnapshotStore(tmp_path))
        assert out == ["saved snap-a.npz"]
        assert not gateway.closed


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
