"""Execution backend: parity always, real-core speedup where possible.

The contract: the process backend must be **bit-identical** to the
simulated baseline on every workload (that part is asserted
unconditionally), and the move-evaluation phase must reach **>= 2x**
wall-clock speedup at 4 workers vs 1 on the scale-12 RMAT workload —
*on a host that has >= 4 CPUs*.  Speedup from real parallelism cannot
exist on fewer cores than workers (4 processes time-slicing 1 CPU can
only add IPC overhead), so the speedup gate self-disables below 4 CPUs
while still measuring and reporting the numbers; the committed
``benchmarks/baselines/BENCH_PR9.json`` records ``host_cpu_count`` so
the provenance of its figures is explicit.

Regenerate the snapshot with ``python -m repro.bench emit PR9 --out
benchmarks/baselines``.
"""

import os

import pytest

from repro.bench.harness import ExperimentTable
from repro.bench.suites import (
    GATE_MIN_CPUS,
    TARGET_SPEEDUP,
    WORKER_SWEEP,
    backend_suite,
)


def test_backend_parity_and_speedup(benchmark):
    suite = benchmark.pedantic(
        backend_suite, kwargs={"repeats": 3}, rounds=1, iterations=1
    )
    rows = {row.key: row for row in suite.rows}

    table = ExperimentTable(
        "Execution backend: wall clock vs simulated baseline",
        ["row", "wall (s)", "move-eval (s)", "speedup", "identical"],
    )
    for row in suite.rows:
        table.add_row(
            row.key,
            f"{row.metrics['wall_seconds']:.4f}",
            (
                f"{row.metrics['moveeval_wall_seconds']:.4f}"
                if "moveeval_wall_seconds" in row.metrics
                else "-"
            ),
            (
                f"{row.metrics['moveeval_speedup']:.2f}x"
                if "moveeval_speedup" in row.metrics
                else "-"
            ),
            row.info.get("identical", "-"),
        )
    table.emit()

    # Parity is unconditional: every process row must be bit-identical
    # to its simulated baseline and must have actually dispatched.
    for key, row in rows.items():
        if "-process-" not in key:
            continue
        assert row.info["identical"], f"{key}: results diverged from simulated"
        assert not row.info["faulted"], f"{key}: backend faulted mid-bench"
        assert row.info["dispatches"] > 0, f"{key}: nothing was dispatched"

    # The speedup gate needs cores to speed up on.
    cpu_count = os.cpu_count() or 1
    top = WORKER_SWEEP[-1]
    ratio = rows[f"rmat12-process-w{top}"].metrics["moveeval_speedup"]
    if cpu_count < GATE_MIN_CPUS:
        pytest.skip(
            f"host has {cpu_count} CPU(s) < {GATE_MIN_CPUS}: {top}-worker "
            f"move-eval measured {ratio:.2f}x vs 1 worker (recorded, not "
            f"gated — real-core speedup requires real cores)"
        )
    assert ratio >= TARGET_SPEEDUP, (
        f"move-eval speedup at {top} workers is {ratio:.2f}x "
        f"(need >= {TARGET_SPEEDUP}x on a {cpu_count}-CPU host)"
    )
