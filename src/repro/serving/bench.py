"""Serving bench: gateway vs the serial single-lane discipline.

The acceptance claim of the serving gateway (ISSUE 10): under a mixed
read/write workload, snapshot-isolated reads stop queueing behind update
commits, so read throughput and tail latency improve over the old
serial discipline — *without* giving up bit-identity of the committed
label sequence (checked in-suite by replaying the coalesced batches
serially through a fresh :class:`~repro.dynamic.clusterer.DynamicClusterer`).

Both sides run the deterministic simulated-clock driver on the *same*
generated workload with the same policy cost model; the only difference
is the lane discipline (``serial_baseline=True`` shares one lane between
reads and commits).  All comparable metrics are virtual-clock and thus
machine-stable; wall seconds ride along as info.  Two graph families
(LFR-like churn graph, planted partition) each get a gateway row and a
serial row, plus a ``read_speedup`` headline on the gateway row.

Writes ``BENCH_PR10.json`` via :class:`~repro.obs.bench.BenchSuite`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.obs.bench import BenchSuite, time_callable
from repro.serving.drivers import SimulatedDriver
from repro.serving.gateway import GatewayPolicy, ServingGateway, replay_digests
from repro.serving.workload import WorkloadSpec

SERVING_RESOLUTION = 0.05

#: Acceptance gates asserted by ``benchmarks/bench_serving.py``.
TARGET_READ_SPEEDUP = 1.5

#: Guard used on every clusterer in the bench: pure-incremental (no
#: periodic recompute, no cascade escalation) so gateway and replay see
#: identical state machines.
BENCH_GUARD = dict(recompute_every=0, max_frontier_fraction=1.0)


def _families(seed: int):
    lfr = lfr_like_graph(600, mixing=0.2, seed=seed)
    planted = planted_partition_graph(
        num_vertices=500, intra_degree=8.0, inter_degree=1.0, seed=seed
    )
    return [("lfr", lfr.graph), ("planted", planted.graph)]


def _bootstrap_labels(graph, config: ClusteringConfig) -> np.ndarray:
    boot = DynamicClusterer.bootstrap(graph, config, engine="sequential")
    labels = boot.state.assignments.copy()
    boot.close()
    return labels


def serving_suite(
    num_requests: int = 600,
    read_fraction: float = 0.85,
    rate: float = 3000.0,
    seed: int = 7,
    repeats: Optional[int] = None,
) -> BenchSuite:
    """Run the gateway-vs-serial comparison; the suite behind BENCH_PR10."""
    policy = GatewayPolicy(
        read_queue_limit=64,
        write_queue_limit=512,
        commit_interval_seconds=0.05,
        read_service_seconds=0.001,
        commit_base_seconds=0.05,
        commit_per_update_seconds=0.001,
        read_concurrency=4,
        read_deadline_seconds=0.0,
    )
    workload = WorkloadSpec(
        num_requests=num_requests,
        read_fraction=read_fraction,
        arrival="open",
        rate=rate,
        seed=seed,
    )
    suite = BenchSuite(
        "PR10",
        meta={
            "workload": workload.describe(),
            "policy": {
                "read_queue_limit": policy.read_queue_limit,
                "write_queue_limit": policy.write_queue_limit,
                "commit_interval_seconds": policy.commit_interval_seconds,
                "read_service_seconds": policy.read_service_seconds,
                "commit_base_seconds": policy.commit_base_seconds,
                "commit_per_update_seconds": policy.commit_per_update_seconds,
                "read_concurrency": policy.read_concurrency,
            },
            "resolution": SERVING_RESOLUTION,
            "engine": "sequential",
            "target_read_speedup": TARGET_READ_SPEEDUP,
        },
    )

    for family, graph in _families(seed):
        config = ClusteringConfig(
            resolution=SERVING_RESOLUTION, parallel=False, seed=seed
        )
        labels0 = _bootstrap_labels(graph, config)
        requests = workload.generate(graph.num_vertices)

        def run_driver(serial: bool):
            clusterer = DynamicClusterer(
                graph,
                labels0.copy(),
                config,
                engine="sequential",
                guard=DriftGuard(**BENCH_GUARD),
            )
            gateway = ServingGateway(clusterer, policy)
            try:
                result = SimulatedDriver(serial_baseline=serial).run(
                    gateway, requests
                )
            finally:
                clusterer.close()
            return gateway, result

        (gw, gw_result), gw_timing = time_callable(
            lambda: run_driver(False), repeats=repeats, warmup=0
        )
        (_, serial_result), serial_timing = time_callable(
            lambda: run_driver(True), repeats=repeats, warmup=0
        )

        accounting = gw_result.check_accounting(gw)
        replayed = replay_digests(
            graph,
            labels0,
            config,
            gw.committed_batches(),
            engine="sequential",
            guard=DriftGuard(**BENCH_GUARD),
        )
        identical = replayed == gw.epoch_log

        gw_summary = gw_result.summary()
        serial_summary = serial_result.summary()
        gw_rps = gw_summary["read_throughput_rps"]
        serial_rps = serial_summary["read_throughput_rps"]
        suite.add_row(
            f"{family}-gateway",
            metrics={
                "read_p95_seconds": gw_summary["read_p95_seconds"] or 0.0,
                "read_speedup": gw_rps / serial_rps if serial_rps else 0.0,
            },
            read_throughput_rps=gw_rps,
            makespan_seconds=gw_summary["makespan_seconds"],
            counts=gw_summary["counts"],
            commits=len(gw.committed),
            epochs=gw.epoch.index,
            replay_identical=bool(identical),
            accounting_issues=accounting,
            wall_seconds=gw_timing.best,
        )
        suite.add_row(
            f"{family}-serial",
            metrics={
                "read_p95_seconds": serial_summary["read_p95_seconds"] or 0.0,
            },
            read_throughput_rps=serial_rps,
            makespan_seconds=serial_summary["makespan_seconds"],
            counts=serial_summary["counts"],
            wall_seconds=serial_timing.best,
        )
    return suite


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Serving gateway bench; writes BENCH_PR10.json"
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--read-fraction", type=float, default=0.85)
    parser.add_argument("--rate", type=float, default=3000.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    suite = serving_suite(
        num_requests=args.requests,
        read_fraction=args.read_fraction,
        rate=args.rate,
        seed=args.seed,
        repeats=1,
    )
    path = suite.write(args.out)
    print(f"wrote {path}")
    for row in suite.rows:
        if row.key.endswith("-gateway"):
            print(
                "{}: read_speedup={:.2f}x  p95={:.4f}s  replay_identical={}".format(
                    row.key,
                    row.metrics["read_speedup"],
                    row.metrics["read_p95_seconds"],
                    row.info["replay_identical"],
                )
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
