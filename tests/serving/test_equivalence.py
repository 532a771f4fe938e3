"""The serving equivalence gate.

Under a mixed workload on the threaded driver, with writes rejected at
commit time and coalesced over several epochs, the gateway's committed
label sequence must be bit-identical to a serial replay of the same
coalesced batches through a fresh clusterer — across two engines and
two graph families, with full accounting (every submitted request
reaches exactly one terminal status).  Reads never change a committed
batch, so read shedding and expiry are checked by the admission tests
in ``test_drivers.py`` instead.
"""

import pytest

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.serving import (
    GatewayPolicy,
    ServingGateway,
    ThreadedDriver,
    WorkloadSpec,
    replay_digests,
)

pytestmark = pytest.mark.serving

NO_GUARD = DriftGuard(recompute_every=0, max_frontier_fraction=1.0)

#: Tight limits: a small batch cap spreads the writes over several
#: epochs, so equivalence is checked across commits, not for one batch.
STRESS_POLICY = GatewayPolicy(
    read_queue_limit=8,
    write_queue_limit=64,
    max_batch_updates=16,
    commit_interval_seconds=0.02,
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
    result = ThreadedDriver(num_threads=4).run(
        gateway, WORKLOAD.generate(graph.num_vertices)
    )

    # Full accounting: no silent drops anywhere in the pipeline.
    assert result.check_accounting(gateway) == []
    counts = result.by_status()
    resolved = sum(sum(row.values()) for row in counts.values())
    assert resolved == WORKLOAD.num_requests

    # The workload must actually reject writes and commit more than one
    # batch, otherwise this gate proves less than it claims.
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

