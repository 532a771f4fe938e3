"""Serving gateway vs serial discipline: the PR10 acceptance gate.

ISSUE 10's contract: under a mixed read/write workload on the
simulated clock, snapshot-isolated reads (dedicated read lanes, commits
on their own lane) must beat a serial single-lane discipline (reads
queue behind every commit) on read throughput — while the
committed label sequence stays bit-identical to a serial replay of the
same coalesced batches, with every request accounted to exactly one
terminal status.

The same suite is committed as ``BENCH_PR10.json`` (regenerate with
``python -m repro.serving.bench --out .``).
"""

from repro.bench.harness import ExperimentTable
from repro.serving.bench import TARGET_READ_SPEEDUP, serving_suite


def test_gateway_beats_serial_discipline(benchmark):
    suite = benchmark.pedantic(
        serving_suite, kwargs={"repeats": 1}, rounds=1, iterations=1
    )
    rows = {row.key: row for row in suite.rows}

    table = ExperimentTable(
        "Serving: gateway vs serial read discipline (virtual clock)",
        ["family", "side", "read rps", "p95 (s)", "speedup", "replay", "epochs"],
    )
    for family in ("lfr", "planted"):
        gw = rows[f"{family}-gateway"]
        serial = rows[f"{family}-serial"]
        table.add_row(
            family,
            "gateway",
            f"{gw.info['read_throughput_rps']:.0f}",
            f"{gw.metrics['read_p95_seconds']:.4f}",
            f"{gw.metrics['read_speedup']:.2f}x",
            gw.info["replay_identical"],
            gw.info["epochs"],
        )
        table.add_row(
            family,
            "serial",
            f"{serial.info['read_throughput_rps']:.0f}",
            f"{serial.metrics['read_p95_seconds']:.4f}",
            "-",
            "-",
            "-",
        )
    table.emit()

    for family in ("lfr", "planted"):
        gw = rows[f"{family}-gateway"]
        assert gw.info["replay_identical"], (
            f"{family}: committed epoch digests diverged from serial replay"
        )
        assert gw.info["accounting_issues"] == [], (
            f"{family}: accounting violations {gw.info['accounting_issues']}"
        )
        assert gw.metrics["read_speedup"] >= TARGET_READ_SPEEDUP, (
            f"{family}: gateway read throughput only "
            f"{gw.metrics['read_speedup']:.2f}x the serial discipline "
            f"(need >= {TARGET_READ_SPEEDUP}x)"
        )
        assert gw.info["epochs"] >= 1, f"{family}: no epoch ever committed"


if __name__ == "__main__":
    from repro.serving.bench import main

    raise SystemExit(main())
