"""Figure 7: scalability of PAR-CC over different numbers of threads.

amazon/orkut run on the 30-core (60-hyper-thread) machine profile,
twitter/friendster on the 48-core (96) one, exactly as in the paper.
Expected shape: near-linear self-relative speedup up to the physical core
count, a shallower hyper-threading tail (the paper reports 5.59-14.97x
self-relative speedups for PAR-CC).

Those speedups are simulated.  A separate table gives one wall-clock
point: the smallest surrogate clustered with one and with two kernel
threads (``repro.kernels.native.usable_cores`` set to 1 and to 2).  It is
printed, not asserted.
"""

from unittest import mock

import numpy as np

from repro.bench.datasets import benchmark_surrogate
from repro.bench.harness import ExperimentTable, time_callable
from repro.bench.sparkline import sparkline
from repro.core.api import correlation_clustering
from repro.core.config import Mode
from repro.kernels import native
from repro.parallel.scheduler import Machine

GRAPH_MACHINES = {
    "amazon": (Machine.c2_standard_60(), (1, 2, 4, 8, 15, 30, 60), 0.5),
    "orkut": (Machine.c2_standard_60(), (1, 2, 4, 8, 15, 30, 60), 0.35),
    "twitter": (Machine.m1_megamem_96(), (1, 2, 4, 12, 24, 48, 96), 0.35),
    "friendster": (Machine.m1_megamem_96(), (1, 2, 4, 12, 24, 48, 96), 0.35),
}


def run_thread_scaling():
    out = {}
    for name, (machine, workers, scale) in GRAPH_MACHINES.items():
        graph = benchmark_surrogate(name, seed=0, scale=scale).graph
        for lam in (0.01, 0.85):
            result = correlation_clustering(
                graph, resolution=lam, seed=1,
                machine=machine, num_workers=machine.max_workers,
            )
            out[(name, lam)] = (machine, workers, [
                result.sim_time(p) for p in workers
            ])
    return out


def test_fig7_thread_scaling_cc(benchmark):
    data = benchmark.pedantic(run_thread_scaling, rounds=1, iterations=1)

    table = ExperimentTable(
        "Figure 7: PAR-CC self-relative speedup vs worker count",
        ["graph", "lambda", "workers", "speedup", "shape"],
    )
    for (name, lam), (machine, workers, times) in data.items():
        base = times[0]
        speedup_series = [base / t for t in times]
        shape = sparkline(speedup_series)
        for p, s in zip(workers, speedup_series):
            table.add_row(name, lam, p, s, shape if p == workers[-1] else "")
    table.emit()

    for (name, lam), (machine, workers, times) in data.items():
        speedups = [times[0] / t for t in times]
        # Monotone non-decreasing in worker count.
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
        # Meaningful parallelism at full machine width (paper: 5.6-15x).
        assert speedups[-1] > 3.0, (name, lam, speedups)
        # Hyper-threading tail is shallower than the physical-core region:
        # marginal speedup per extra worker drops past the core count.
        cores_idx = workers.index(machine.cores)
        physical_slope = (speedups[cores_idx] - speedups[0]) / (
            workers[cores_idx] - workers[0]
        )
        smt_slope = (speedups[-1] - speedups[cores_idx]) / (
            workers[-1] - workers[cores_idx]
        )
        assert smt_slope < physical_slope


def _split_windows():
    """Windows the native kernel has split so far (0 without it)."""
    return (native.pool_stats() or {}).get("split_windows", 0)


def run_kernel_threads_wall(name="amazon", scale=0.5, repeats=3):
    """Best-of-``repeats`` wall seconds of one ``name`` clustering per
    mode and kernel thread count (1, 2), the thread counts timed in
    alternation, with the windows that split and the labels of each.

    At this size an asynchronous window holds ~94 vertices, under the
    kernel's split threshold, so only the synchronous rows, whose
    window is a whole round, split.
    """
    graph = benchmark_surrogate(name, seed=0, scale=scale).graph
    rows = {}
    for mode in (Mode.ASYNC, Mode.SYNC):
        for _ in range(repeats):
            for threads in (1, 2):
                before = _split_windows()
                with mock.patch.object(native, "usable_cores", lambda: threads):
                    result, timing = time_callable(
                        lambda: correlation_clustering(
                            graph, resolution=0.01, seed=1, mode=mode
                        ),
                        repeats=1,
                    )
                splits = _split_windows() - before
                best = rows.get((mode, threads), (float("inf"),))[0]
                rows[mode, threads] = (
                    min(best, timing.best), splits, result.assignments
                )
    return rows


def test_fig7_kernel_threads_wall(benchmark):
    rows = benchmark.pedantic(run_kernel_threads_wall, rounds=1, iterations=1)
    table = ExperimentTable(
        "Figure 7 (wall): amazon surrogate, 1 vs 2 kernel threads",
        ["mode", "threads", "wall_s", "split_windows", "clock"],
    )
    for (mode, threads), (seconds, splits, _) in rows.items():
        table.add_row(mode.value, threads, seconds, splits, "wall")
    table.emit()
    # The times are information; the thread count never changes a result.
    for mode in (Mode.ASYNC, Mode.SYNC):
        assert np.array_equal(rows[mode, 1][2], rows[mode, 2][2])
