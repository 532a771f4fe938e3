"""Drivers and workload: determinism, accounting, shedding, threads."""

import pytest

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.graphs.karate import karate_club_graph
from repro.serving import (
    GatewayPolicy,
    ServingGateway,
    SimulatedDriver,
    ThreadedDriver,
    WorkloadSpec,
    replay_digests,
)

pytestmark = pytest.mark.serving

NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)


def make_gateway(policy=None, seed=1):
    config = ClusteringConfig(resolution=0.1, parallel=False, seed=seed)
    clusterer = DynamicClusterer.bootstrap(
        karate_club_graph(), config, engine="sequential", guard=NO_GUARD
    )
    return ServingGateway(clusterer, policy), clusterer


def response_key(resp):
    return (resp.request_id, resp.status, resp.epoch, round(resp.latency, 12))


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


class TestSimulatedDriver:
    def test_run_is_deterministic(self):
        spec = WorkloadSpec(num_requests=120, read_fraction=0.8, seed=9)
        runs = []
        for _ in range(2):
            gw, clusterer = make_gateway()
            result = SimulatedDriver().run(gw, spec.generate(34))
            runs.append(
                (
                    sorted(response_key(r) for r in result.responses),
                    result.makespan,
                    gw.epoch_log,
                )
            )
        assert runs[0] == runs[1]

    def test_accounting_no_silent_drops(self):
        spec = WorkloadSpec(num_requests=150, read_fraction=0.8, seed=4)
        gw, clusterer = make_gateway(
            GatewayPolicy(read_queue_limit=4, read_concurrency=1,
                          read_service_seconds=0.01)
        )
        result = SimulatedDriver().run(gw, spec.generate(34))
        assert result.check_accounting(gw) == []
        assert len(result.responses) == len(spec.generate(34))

    def test_tight_queue_sheds_reads(self):
        spec = WorkloadSpec(
            num_requests=200, read_fraction=0.95, rate=50_000.0, seed=6
        )
        gw, clusterer = make_gateway(
            GatewayPolicy(read_queue_limit=2, read_concurrency=1,
                          read_service_seconds=0.01)
        )
        result = SimulatedDriver().run(gw, spec.generate(34))
        assert result.by_status()["read"]["shed"] > 0
        assert result.check_accounting(gw) == []

    def test_deadline_expiry(self):
        spec = WorkloadSpec(
            num_requests=200,
            read_fraction=0.95,
            rate=50_000.0,
            read_deadline_seconds=0.002,
            seed=6,
        )
        gw, clusterer = make_gateway(
            GatewayPolicy(read_queue_limit=256, read_concurrency=1,
                          read_service_seconds=0.01)
        )
        result = SimulatedDriver().run(gw, spec.generate(34))
        by_status = result.by_status()
        assert by_status["read"]["expired"] > 0
        expired = [
            r for r in result.responses
            if r.klass == "read" and r.status == "expired"
        ]
        assert all(r.latency <= 0.002 + 1e-12 for r in expired)
        assert result.check_accounting(gw) == []


class TestThreadedDriver:
    def test_threaded_replay_and_accounting(self):
        spec = WorkloadSpec(num_requests=120, read_fraction=0.8, seed=11)
        graph = karate_club_graph()
        gw, clusterer = make_gateway(
            GatewayPolicy(commit_interval_seconds=0.01)
        )
        labels0 = gw.epoch.assignments.copy()
        result = ThreadedDriver(num_threads=4).run(gw, spec.generate(34))
        assert result.check_accounting(gw) == []
        digests = replay_digests(
            graph,
            labels0,
            clusterer.config,
            gw.committed_batches(),
            engine="sequential",
            guard=NO_GUARD,
        )
        assert digests == gw.epoch_log
