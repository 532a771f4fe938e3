"""The threaded driver and the workload: accounting, replay, pacing."""

import sys

import pytest

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.graphs.karate import karate_club_graph
from repro.obs.instrument import (
    M_GATEWAY_REQUESTS,
    M_SERVE_LATENCY,
    Instrumentation,
)
from repro.serving import (
    GatewayPolicy,
    ServingGateway,
    ThreadedDriver,
    WorkloadSpec,
    replay_digests,
)

pytestmark = pytest.mark.serving

NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)


def make_gateway(policy=None, seed=1, instrumentation=None):
    config = ClusteringConfig(resolution=0.1, parallel=False, seed=seed)
    clusterer = DynamicClusterer.bootstrap(
        karate_club_graph(), config, engine="sequential", guard=NO_GUARD
    )
    gateway = ServingGateway(clusterer, policy, instrumentation=instrumentation)
    return gateway, clusterer


def assert_replays(gw, clusterer, labels0):
    digests = replay_digests(
        karate_club_graph(),
        labels0,
        clusterer.config,
        gw.committed_batches(),
        engine="sequential",
        guard=NO_GUARD,
    )
    assert digests == gw.epoch_log


class TestWorkload:
    def test_deterministic_generation(self):
        spec = WorkloadSpec(num_requests=80, seed=5)
        a = spec.generate(34)
        b = spec.generate(34)
        assert [r.request_id for r in a] == [r.request_id for r in b]
        assert [r.kind for r in a] == [r.kind for r in b]
        assert [r.submitted_at for r in a] == [r.submitted_at for r in b]

    def test_read_fraction_respected(self):
        spec = WorkloadSpec(num_requests=200, read_fraction=0.7, seed=3)
        requests = spec.generate(34)
        reads = sum(1 for r in requests if r.klass == "read")
        assert 0.55 <= reads / len(requests) <= 0.85

    def test_closed_loop_sorted_arrivals(self):
        spec = WorkloadSpec(num_requests=60, arrival="closed", clients=4, seed=2)
        times = [r.submitted_at for r in spec.generate(34)]
        assert times == sorted(times)


class TestThreadedDriver:
    def test_threaded_replay_and_accounting(self):
        spec = WorkloadSpec(num_requests=120, read_fraction=0.8, seed=11)
        gw, clusterer = make_gateway(
            GatewayPolicy(commit_interval_seconds=0.01)
        )
        labels0 = gw.epoch.assignments.copy()
        requests = spec.generate(34)
        result = ThreadedDriver(num_threads=4).run(gw, requests)
        assert result.check_accounting(gw) == []
        num_reads = sum(1 for r in requests if r.klass == "read")
        assert result.by_status()["read"]["ok"] == num_reads
        assert_replays(gw, clusterer, labels0)

    def test_time_scale_paces_arrivals(self):
        spec = WorkloadSpec(num_requests=40, read_fraction=0.7, seed=8)
        requests = spec.generate(34)
        gw, clusterer = make_gateway(
            GatewayPolicy(commit_interval_seconds=0.005)
        )
        labels0 = gw.epoch.assignments.copy()
        result = ThreadedDriver(num_threads=2, time_scale=1.0).run(
            gw, requests
        )
        assert result.makespan >= requests[-1].submitted_at
        assert result.check_accounting(gw) == []
        assert len(gw.committed) >= 1
        assert_replays(gw, clusterer, labels0)

    def test_instrumented_metrics_count_every_request(self):
        """Gateway metrics are exact when threads switch every µs."""
        spec = WorkloadSpec(num_requests=4000, seed=7)
        requests = spec.generate(34)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                instr = Instrumentation()
                gw, _ = make_gateway(
                    GatewayPolicy(commit_interval_seconds=0.01),
                    instrumentation=instr,
                )
                result = ThreadedDriver(num_threads=8).run(gw, requests)
                counted = instr.metrics.get(M_GATEWAY_REQUESTS).total()
                reads = instr.metrics.get(M_SERVE_LATENCY).count(op="read")
                assert counted == len(requests)
                assert reads == result.by_status()["read"]["ok"]
        finally:
            sys.setswitchinterval(interval)
