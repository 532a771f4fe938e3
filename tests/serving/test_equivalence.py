"""The serving equivalence gate (ISSUE 10 acceptance).

Under a mixed workload with shedding, rejection, and deadline expiry,
the gateway's committed label sequence must be bit-identical to a serial
replay of the same coalesced batches through a fresh clusterer — across
at least two engines and two graph families, with full accounting (every
submitted request reaches exactly one terminal status).
"""

import pytest

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.serving import (
    GatewayPolicy,
    ServingGateway,
    SimulatedDriver,
    WorkloadSpec,
    replay_digests,
)

pytestmark = pytest.mark.serving

NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)

#: Tight limits + a short deadline so the workload exercises all four
#: terminal statuses, proving equivalence holds under admission control,
#: not just on the happy path.
STRESS_POLICY = GatewayPolicy(
    read_queue_limit=8,
    write_queue_limit=64,
    max_batch_updates=16,
    commit_interval_seconds=0.02,
    read_service_seconds=0.002,
    read_concurrency=2,
)

WORKLOAD = WorkloadSpec(
    num_requests=250,
    read_fraction=0.8,
    rate=8000.0,
    read_deadline_seconds=0.05,
    delete_fraction=0.2,
    reweight_fraction=0.2,
    seed=13,
)


def family(name, seed=3):
    if name == "lfr":
        return lfr_like_graph(250, mixing=0.2, seed=seed).graph
    return planted_partition_graph(
        num_vertices=200, intra_degree=8.0, inter_degree=1.0, seed=seed
    ).graph


@pytest.mark.parametrize("engine", ["sequential", "relaxed"])
@pytest.mark.parametrize("family_name", ["lfr", "planted"])
def test_gateway_replay_bit_identical(engine, family_name):
    graph = family(family_name)
    config = ClusteringConfig(resolution=0.05, parallel=False, seed=3)
    boot = DynamicClusterer.bootstrap(
        graph, config, engine="sequential", guard=NO_GUARD
    )
    labels0 = boot.state.assignments.copy()

    clusterer = DynamicClusterer(
        graph, labels0.copy(), config, engine=engine, guard=NO_GUARD
    )
    gateway = ServingGateway(clusterer, STRESS_POLICY)
    result = SimulatedDriver().run(
        gateway, WORKLOAD.generate(graph.num_vertices)
    )

    # Full accounting: no silent drops anywhere in the pipeline.
    assert result.check_accounting(gateway) == []
    counts = result.by_status()
    resolved = sum(sum(row.values()) for row in counts.values())
    assert resolved == WORKLOAD.num_requests

    # The stress policy must actually exercise the shed/reject paths,
    # otherwise this gate proves less than it claims.
    assert counts["write"]["ok"] > 0
    assert counts["write"]["rejected"] > 0
    assert gateway.epoch.index >= 2

    # Bit-identity: serial replay of the filtered batches, same engine.
    digests = replay_digests(
        graph,
        labels0,
        config,
        gateway.committed_batches(),
        engine=engine,
        guard=NO_GUARD,
    )
    assert digests == gateway.epoch_log


def test_engines_agree_on_epoch_log():
    """Same workload, same batches: both engines land identical logs.

    The localized-refinement seed set is deterministic per batch, and
    both engines run it through deterministic schedules, so the entire
    epoch history must agree across engines — the strongest cross-engine
    form of the gate.
    """
    graph = family("lfr")
    config = ClusteringConfig(resolution=0.05, parallel=False, seed=3)
    boot = DynamicClusterer.bootstrap(
        graph, config, engine="sequential", guard=NO_GUARD
    )
    labels0 = boot.state.assignments.copy()

    logs = {}
    for engine in ("sequential", "relaxed"):
        clusterer = DynamicClusterer(
            graph, labels0.copy(), config, engine=engine, guard=NO_GUARD
        )
        gateway = ServingGateway(clusterer, STRESS_POLICY)
        SimulatedDriver().run(
            gateway, WORKLOAD.generate(graph.num_vertices)
        )
        logs[engine] = (
            [entry["updates"] for entry in gateway.committed],
            len(gateway.epoch_log),
        )
    # Coalescing is driver-determined, so both engines commit the very
    # same batches; epoch counts must line up.
    assert logs["sequential"][0] == logs["relaxed"][0]
    assert logs["sequential"][1] == logs["relaxed"][1]
