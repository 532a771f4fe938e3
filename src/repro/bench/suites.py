"""The suites behind the committed ``benchmarks/baselines/BENCH_*.json``.

:data:`SUITES` maps each committed baseline name to the function that
regenerates it; ``python -m repro.bench emit NAME... --out DIR`` runs
them.  Every suite takes ``repeats`` and returns a
:class:`~repro.bench.harness.BenchSuite`:

* ``engines`` — every registry engine on a deterministic scale-8 RMAT
  graph (objective and simulated time);
* ``overhead`` — instrumentation (disabled / enabled) and no-fault
  supervision against a bare run on a planted-partition graph;
* ``PR3`` — one fully instrumented run plus its telemetry coverage;
* ``PR4`` — native vs reference kernel speedups and parity;
* ``PR7`` — dynamic updates vs full recompute on LFR churn batches;
* ``PR9`` — the process backend at 1/2/4 workers vs inline.

Deterministic metrics (objective, simulated time, candidate counts) are
machine-stable; wall seconds ride along as info or as noisy metrics.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.bench.harness import BenchSuite, time_callable

#: RMAT generator parameters for the baseline workload: small enough to
#: regenerate in seconds, structured enough that every engine does real
#: multilevel work.
BASELINE_RMAT = {"scale": 8, "edge_factor": 8, "seed": 0}
BASELINE_RESOLUTION = 0.05
BASELINE_SEED = 1


def _baseline_graph():
    from repro.generators.rmat import rmat_graph

    spec = BASELINE_RMAT
    return rmat_graph(
        spec["scale"],
        spec["edge_factor"] * 2 ** spec["scale"],
        seed=spec["seed"],
    )


def engines_suite(repeats: int = 3) -> BenchSuite:
    """Every registry engine on the deterministic RMAT graph, one row each.

    The comparable metrics (simulated time, objective) are deterministic
    functions of the seed, so the committed baseline is machine-stable;
    wall seconds ride along as information only.
    """
    from repro.core.config import ClusteringConfig
    from repro.core.engines import ENGINES, multilevel_with_engine
    from repro.core.objective import lambdacc_objective
    from repro.parallel.scheduler import SimulatedScheduler
    from repro.utils.rng import make_rng

    graph = _baseline_graph()
    suite = BenchSuite(
        "engines",
        meta={
            "workload": dict(BASELINE_RMAT),
            "resolution": BASELINE_RESOLUTION,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
    )
    for engine in sorted(ENGINES):
        workers = 1 if engine == "sequential" else 60
        config = ClusteringConfig(
            resolution=BASELINE_RESOLUTION,
            refine=False,
            seed=BASELINE_SEED,
            num_workers=workers,
        )

        def run(engine=engine, config=config):
            sched = SimulatedScheduler(num_workers=config.num_workers)
            assignments, stats = multilevel_with_engine(
                graph,
                BASELINE_RESOLUTION,
                config,
                engine=engine,
                sched=sched,
                rng=make_rng(BASELINE_SEED),
            )
            return assignments, stats, sched

        (assignments, stats, sched), timing = time_callable(
            run, repeats=repeats, warmup=1
        )
        suite.add_row(
            engine,
            metrics={
                "f_objective": lambdacc_objective(
                    graph, assignments, BASELINE_RESOLUTION
                ),
                "sim_time_seconds": sched.simulated_time(workers),
            },
            rounds=stats.total_iterations,
            moves=stats.total_moves,
            levels=stats.num_levels,
            wall_seconds=timing.best,
        )
    return suite


def overhead_suite(repeats: int = 5) -> BenchSuite:
    """Observation and supervision overhead on a planted-partition workload.

    A bare ``cluster()`` run is the ``baseline`` row.  Three variants run
    the same graph and config: instrumentation constructed but
    ``disabled``, instrumentation ``enabled``, and ``supervised`` by a
    :class:`~repro.supervisor.RunSupervisor` with no faults.  Each
    variant's comparable metric is its wall-clock ``slowdown`` over the
    baseline; ``identical`` / ``sim_identical`` record whether it changed
    the clustering, objective or simulated cost (it must not).
    """
    from repro.core.api import cluster
    from repro.core.config import ClusteringConfig
    from repro.core.options import RunOptions
    from repro.generators.planted import planted_partition_graph
    from repro.obs.instrument import Instrumentation
    from repro.supervisor import RunSupervisor

    graph = planted_partition_graph(
        num_vertices=2000, intra_degree=8.0, inter_degree=1.0, seed=0
    ).graph
    config = ClusteringConfig(resolution=BASELINE_RESOLUTION, seed=7)

    def timed(options_factory):
        return time_callable(
            lambda: cluster(graph, config, options_factory()),
            repeats=repeats,
            warmup=1,
        )

    base_result, base_timing = timed(RunOptions)
    suite = BenchSuite(
        "overhead",
        meta={
            "workload": "planted(n=2000, intra=8, inter=1, seed=0)",
            "resolution": BASELINE_RESOLUTION,
            "repeats": repeats,
        },
    )
    suite.add_row(
        "baseline",
        metrics={"sim_time_seconds": base_result.sim_time()},
        wall_seconds=base_timing.best,
    )
    variants = {
        "disabled": lambda: RunOptions(
            instrumentation=Instrumentation(enabled=False)
        ),
        "enabled": lambda: RunOptions(instrumentation=Instrumentation()),
        "supervised": lambda: RunOptions(supervisor=RunSupervisor()),
    }
    for key, options_factory in variants.items():
        result, timing = timed(options_factory)
        info = {}
        if key == "supervised":
            meta = result.extras.get("supervisor", {})
            info = dict(
                attempts=int(meta.get("attempts", 0)),
                rung=str(meta.get("rung", "")),
                degraded=bool(result.degraded),
            )
        suite.add_row(
            key,
            metrics={"slowdown": timing.best / base_timing.best},
            wall_seconds=timing.best,
            identical=bool(
                np.array_equal(result.assignments, base_result.assignments)
                and result.objective == base_result.objective
            ),
            sim_identical=bool(result.sim_time() == base_result.sim_time()),
            **info,
        )
    return suite


def telemetry_suite(repeats: int = 3) -> BenchSuite:
    """The ``PR3`` telemetry snapshot: quality metrics plus telemetry coverage.

    One fully-instrumented relaxed-engine run on the deterministic RMAT
    workload.  The comparable metrics are the usual simulated time and
    objective; the *info* fields record how much telemetry the run
    produced (worker chunks and lanes, CAS attempts, dedup hits, probe
    samples) so a refactor that silently stops emitting any of it shows
    up as a diff in the committed ``BENCH_PR3.json``.
    """
    from repro.core.api import cluster
    from repro.core.config import ClusteringConfig
    from repro.core.options import RunOptions
    from repro.obs.instrument import (
        M_CAS_ATTEMPTS,
        M_DEDUP_HITS,
        M_HASH_PROBES,
        Instrumentation,
    )

    graph = _baseline_graph()
    config = ClusteringConfig(
        resolution=BASELINE_RESOLUTION, refine=False, seed=BASELINE_SEED
    )

    def run():
        instr = Instrumentation()
        return cluster(graph, config, RunOptions(instrumentation=instr)), instr

    (result, instr), timing = time_callable(run, repeats=repeats, warmup=1)
    workers = instr.tracer.worker_records()
    probes = instr.metrics.get(M_HASH_PROBES)
    cas = instr.metrics.get(M_CAS_ATTEMPTS)
    dedup = instr.metrics.get(M_DEDUP_HITS)
    suite = BenchSuite(
        "PR3",
        meta={
            "workload": dict(BASELINE_RMAT),
            "resolution": BASELINE_RESOLUTION,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
    )
    suite.add_row(
        "relaxed-instrumented",
        metrics={
            "f_objective": result.f_objective,
            "sim_time_seconds": result.sim_time(),
        },
        wall_seconds=timing.best,
        rounds=result.rounds,
        worker_chunks=len(workers),
        worker_lanes=len({w["worker"] for w in workers}),
        cas_attempts=int(cas.total()) if cas else 0,
        dedup_hits=int(dedup.total()) if dedup else 0,
        probe_samples=probes.total_count() if probes else 0,
    )
    return suite


def kernels_suite(repeats: int = 3) -> BenchSuite:
    """The ``PR4`` kernel snapshot: native-vs-reference speedups + parity.

    Three kinds of rows:

    * ``kernel-eval-*`` — a microbenchmark of the kernel layer alone:
      one full-frontier ``batch_moves`` call on a singleton state, timed
      for both kernels.  ``kernel_speedup`` (higher-better) is the
      headline metric; ``identical`` records bit-equality of the
      returned targets and gains.
    * ``<engine>-scale8-<kernel>`` — end-to-end engine runs whose
      comparable metrics (``f_objective``, ``sim_time_seconds``) must
      match *exactly* across kernels — the cost model never sees which
      kernel evaluated the moves (DESIGN.md §8).
    * ``relaxed-scale12-native`` — a larger run riding along as
      wall-clock evidence that the default kernel scales.
    """
    from repro.core.config import ClusteringConfig
    from repro.core.engines import multilevel_with_engine
    from repro.core.objective import lambdacc_objective
    from repro.core.state import ClusterState
    from repro.generators.rmat import rmat_graph
    from repro.kernels import KERNELS
    from repro.parallel.scheduler import SimulatedScheduler
    from repro.utils.rng import make_rng

    suite = BenchSuite(
        "PR4",
        meta={
            "workload": dict(BASELINE_RMAT),
            "resolution": BASELINE_RESOLUTION,
            "repeats": repeats,
        },
    )

    # --- kernel-eval microbenchmark: the kernel layer alone ------------
    for scale in (BASELINE_RMAT["scale"], 12):
        graph = rmat_graph(
            scale, BASELINE_RMAT["edge_factor"] * 2**scale,
            seed=BASELINE_RMAT["seed"],
        )
        batch = np.arange(graph.num_vertices, dtype=np.int64)

        state = ClusterState.singletons(graph)  # batch_moves only reads it
        outputs: Dict[str, tuple] = {}
        best: Dict[str, float] = {}
        # Alternate the kernels, so that drift in the host's speed hits
        # both; each round warms the caches for the kernel it times.
        for _ in range(max(repeats, 5)):
            for kernel in ("reference", "native"):
                outputs[kernel], timing = time_callable(
                    lambda: KERNELS[kernel].batch_moves(
                        graph, state, batch, BASELINE_RESOLUTION
                    ),
                    repeats=3, warmup=1,
                )
                best[kernel] = min(best.get(kernel, timing.best), timing.best)
        suite.add_row(
            f"kernel-eval-scale{scale}",
            metrics={"kernel_speedup": best["reference"] / best["native"]},
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            reference_seconds=best["reference"],
            native_seconds=best["native"],
            identical=all(
                a.tobytes() == b.tobytes()
                for a, b in zip(outputs["reference"], outputs["native"])
            ),
        )

    # --- end-to-end engine parity rows ---------------------------------
    def engine_run(graph, engine, kernel, workers):
        config = ClusteringConfig(
            resolution=BASELINE_RESOLUTION,
            refine=False,
            seed=BASELINE_SEED,
            num_workers=workers,
            kernel=kernel,
        )
        sched = SimulatedScheduler(num_workers=workers)
        assignments, stats = multilevel_with_engine(
            graph,
            BASELINE_RESOLUTION,
            config,
            engine=engine,
            sched=sched,
            rng=make_rng(BASELINE_SEED),
        )
        return assignments, sched.simulated_time(workers)

    graph8 = _baseline_graph()
    for engine in ("relaxed", "prefix"):
        reference_assignments = None
        for kernel in ("reference", "native"):
            (assignments, sim_time), timing = time_callable(
                lambda: engine_run(graph8, engine, kernel, workers=60),
                repeats=repeats, warmup=1,
            )
            row = {
                "metrics": {
                    "f_objective": lambdacc_objective(
                        graph8, assignments, BASELINE_RESOLUTION
                    ),
                    "sim_time_seconds": sim_time,
                },
                "wall_seconds": timing.best,
            }
            if kernel == "reference":
                reference_assignments = assignments
            else:
                row["identical"] = bool(
                    np.array_equal(assignments, reference_assignments)
                )
            suite.add_row(f"{engine}-scale8-{kernel}", **row)

    # --- scale-12 default-kernel run -----------------------------------
    graph12 = rmat_graph(
        12, BASELINE_RMAT["edge_factor"] * 2**12, seed=BASELINE_RMAT["seed"]
    )
    (assignments, sim_time), timing = time_callable(
        lambda: engine_run(graph12, "relaxed", "native", workers=60),
        repeats=repeats, warmup=1,
    )
    suite.add_row(
        "relaxed-scale12-native",
        metrics={
            "f_objective": lambdacc_objective(
                graph12, assignments, BASELINE_RESOLUTION
            ),
            "sim_time_seconds": sim_time,
        },
        wall_seconds=timing.best,
        vertices=graph12.num_vertices,
        edges=graph12.num_edges,
    )
    return suite


# ---------------------------------------------------------------------------
# dynamic updates vs full recompute (``PR7``)
# ---------------------------------------------------------------------------
#: Resolution for the LFR churn workload (community scale ~10-100).
DYNAMIC_RESOLUTION = 0.05

#: Gates asserted by ``benchmarks/bench_dynamic.py``.
TARGET_EVAL_RATIO = 5.0
OBJECTIVE_TOLERANCE = 1e-9


def churn_batch(graph, fraction: float, rng: np.random.Generator):
    """A batch touching at most ``fraction`` of the graph's edges.

    Half deletes of random existing edges, half inserts of random absent
    pairs (unit weight) — the steady-state churn shape of a graph whose
    size stays roughly constant while its edge set drifts.
    """
    from repro.dynamic.updates import EdgeUpdate, UpdateBatch

    u, v, _ = graph.edge_list()
    m = int(u.size)
    k = max(2, int(fraction * m))
    num_delete = k // 2
    num_insert = k - num_delete
    picks = rng.choice(m, size=num_delete, replace=False)
    updates = [
        EdgeUpdate("delete", int(u[i]), int(v[i])) for i in sorted(picks)
    ]
    present = set(zip(u.tolist(), v.tolist()))
    for i in picks:
        present.discard((int(u[i]), int(v[i])))
    n = graph.num_vertices
    while num_insert > 0:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in present:
            continue
        present.add(key)
        updates.append(EdgeUpdate("insert", key[0], key[1], 1.0))
        num_insert -= 1
    return UpdateBatch(updates)


def _full_recompute(
    graph, pre_assignments, resolution, config
) -> Tuple[np.ndarray, int]:
    """Full single-level recompute from the warm partition; returns
    (assignments, candidate evaluations)."""
    from repro.core.engines import run_engine_restricted
    from repro.core.state import ClusterState

    state = ClusterState.from_assignments(graph, pre_assignments)
    stats = run_engine_restricted(
        graph,
        state,
        resolution,
        config,
        engine="sequential",
        frontier=None,
        rng=None,
    )
    return state.assignments, int(sum(stats.frontier_sizes))


def dynamic_suite(repeats: int = 3) -> BenchSuite:
    """The ``PR7`` suite: localized refinement vs full recompute.

    On four LFR churn batches touching at most 0.5% of the edges each,
    applying the batch through
    :class:`~repro.dynamic.clusterer.DynamicClusterer` (frontier seeded
    from just the touched endpoints) must evaluate >= 5x fewer candidate
    moves than a full single-level recompute from the same warm
    partition on the same updated graph, at an equal final objective.

    Candidate-move evaluations are the sum of per-round frontier sizes:
    the full baseline pays ``n`` in its first round by construction, the
    incremental path pays ``|touched endpoints|`` and whatever the
    cascade reaches.  Both paths run the deterministic sequential engine
    with ``rng=None`` (id-order sweeps), so equal objectives are a hard
    equality of the refinement outcome, not a tolerance hiding divergent
    local optima.
    """
    from repro.core.config import ClusteringConfig, Frontier
    from repro.core.engines import run_engine_restricted
    from repro.core.objective import lambdacc_objective
    from repro.core.state import ClusterState
    from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
    from repro.generators.lfr import lfr_like_graph

    num_vertices, num_batches, churn_fraction, seed = 2000, 4, 0.005, 7
    graph = lfr_like_graph(num_vertices, mixing=0.2, seed=seed).graph
    config = ClusteringConfig(
        resolution=DYNAMIC_RESOLUTION,
        parallel=False,
        num_iter=None,  # converge: the warm partition is a fixed point
        # Cluster-neighbors frontier maintenance chases *every* landscape
        # change a move causes (cluster-weight shifts reach cluster-mates
        # that are not graph neighbors), so restricted and full runs
        # converge to the same fixed point — the equal-objective gate.
        frontier=Frontier.CLUSTER_NEIGHBORS,
        seed=seed,
    )

    # Warm partition: multilevel bootstrap, then one full sequential sweep
    # to a single-level fixed point.  Without this the full-recompute
    # baseline would bundle leftover multilevel refinement moves into its
    # first batch and the two paths would measure different work.
    warm_assignments, _ = _full_recompute(
        graph,
        DynamicClusterer.bootstrap(
            graph, config, engine="sequential"
        ).state.assignments,
        DYNAMIC_RESOLUTION,
        config,
    )
    clusterer = DynamicClusterer(
        graph,
        warm_assignments,
        config,
        engine="sequential",
        guard=DriftGuard(recompute_every=0, max_frontier_fraction=1.0),
    )
    # Deterministic id-order sweeps: equal objectives become a hard
    # equality of refinement outcomes, not luck of the permutation.
    clusterer.rng = None

    churn_rng = np.random.default_rng(seed)
    inc_evals = 0
    full_evals = 0
    inc_wall = 0.0
    full_wall = 0.0
    max_f_delta = 0.0
    identical = True
    moves = 0
    seed_sizes: List[int] = []
    batch_rows = []

    for index in range(num_batches):
        batch = churn_batch(clusterer.graph, churn_fraction, churn_rng)
        pre = clusterer.state.assignments.copy()

        report = clusterer.apply(batch)
        inc_evals += report.candidate_evaluations
        moves += report.moves
        seed_sizes.append(report.seed_size)
        updated = clusterer.graph  # post-compaction graph the batch built

        # Wall clocks: rebuild-from-warm-partition plus refinement, the
        # work a serving system would repeat per batch on either path.
        touched = batch.touched_vertices()
        _, inc_timing = time_callable(
            lambda: run_engine_restricted(
                updated,
                ClusterState.from_assignments(updated, pre),
                DYNAMIC_RESOLUTION,
                config,
                engine="sequential",
                frontier=touched,
                rng=None,
            ),
            repeats=repeats,
            warmup=1,
        )
        (full_assignments, batch_full_evals), full_timing = time_callable(
            lambda: _full_recompute(updated, pre, DYNAMIC_RESOLUTION, config),
            repeats=repeats,
            warmup=1,
        )
        inc_wall += inc_timing.best
        full_wall += full_timing.best
        full_evals += batch_full_evals

        f_inc = clusterer.exact_objective()
        f_full = lambdacc_objective(updated, full_assignments, DYNAMIC_RESOLUTION)
        delta = abs(f_inc - f_full)
        max_f_delta = max(max_f_delta, delta)
        identical = identical and bool(
            np.array_equal(full_assignments, clusterer.state.assignments)
        )
        batch_rows.append(
            {
                "batch": index,
                "updates": len(batch),
                "seed_size": report.seed_size,
                "incremental_evals": report.candidate_evaluations,
                "full_evals": batch_full_evals,
                "moves": report.moves,
                "f_delta": delta,
            }
        )

    eval_ratio = full_evals / max(1, inc_evals)
    suite = BenchSuite(
        "PR7",
        meta={
            "workload": "lfr-churn",
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "num_batches": int(num_batches),
            "churn_fraction": float(churn_fraction),
            "resolution": DYNAMIC_RESOLUTION,
            "engine": "sequential",
            "seed": int(seed),
        },
    )
    suite.add_row(
        "full-recompute",
        metrics={
            "candidate_evals": float(full_evals),
            "wall_seconds": full_wall,
        },
        batches=batch_rows,
    )
    suite.add_row(
        "incremental",
        metrics={
            "candidate_evals": float(inc_evals),
            "wall_seconds": inc_wall,
            "eval_ratio": eval_ratio,
            "f_delta_abs": max_f_delta,
        },
        identical=identical,
        moves=int(moves),
        seed_sizes=[int(s) for s in seed_sizes],
        target_eval_ratio=TARGET_EVAL_RATIO,
        objective_tolerance=OBJECTIVE_TOLERANCE,
    )
    return suite


# ---------------------------------------------------------------------------
# process backend vs inline (``PR9``)
# ---------------------------------------------------------------------------
#: Worker counts swept by the backend suite (1 is the IPC-overhead control).
WORKER_SWEEP = (1, 2, 4)

#: >= 2x move-eval speedup at 4 workers vs 1, gated by
#: ``benchmarks/bench_backend.py`` only on hosts with >= 4 CPUs.
TARGET_SPEEDUP = 2.0
GATE_MIN_CPUS = 4

#: Resolution shared by both backend workloads.
BACKEND_RESOLUTION = 0.05


def backend_suite(repeats: int = 3) -> BenchSuite:
    """The ``PR9`` suite: warm process pools of 1/2/4 workers vs inline.

    Two measurements per workload (scale-12 RMAT and an LFR graph):
    ``cluster()`` end to end (pool start-up excluded: the pool is created
    once and reused), and the move-evaluation phase alone (one full-graph
    batch through the pool).  Every process row is checked bit-identical
    against its inline baseline before any timing is trusted.

    Real-core speedup is bounded by the host's cores, so ``meta`` records
    ``host_cpu_count``; on fewer than 4 CPUs the numbers are recorded but
    the speedup gate does not apply.
    """
    from repro.core.api import cluster
    from repro.core.config import ClusteringConfig, Frontier, Mode
    from repro.core.options import RunOptions
    from repro.core.state import ClusterState
    from repro.generators.lfr import lfr_like_graph
    from repro.generators.rmat import rmat_graph
    from repro.parallel.backend.process import ProcessBackend

    seed = 3
    cpu_count = os.cpu_count() or 1
    suite = BenchSuite(
        "PR9",
        meta={
            "host_cpu_count": cpu_count,
            "speedup_gate_applicable": cpu_count >= GATE_MIN_CPUS,
            "target_speedup": TARGET_SPEEDUP,
            "worker_sweep": list(WORKER_SWEEP),
            "repeats": repeats,
            "resolution": BACKEND_RESOLUTION,
            "seed": seed,
        },
    )
    # Synchronous mode with the ALL frontier keeps batch windows at full
    # frontier width — the dispatch-heavy shape the backend accelerates.
    config = ClusteringConfig(
        resolution=BACKEND_RESOLUTION,
        mode=Mode.SYNC,
        frontier=Frontier.ALL,
        seed=seed,
    )
    workloads = {
        "rmat12": rmat_graph(12, 8 * 2**12, seed=seed),
        "lfr": lfr_like_graph(3000, mixing=0.2, seed=seed).graph,
    }
    for name, graph in workloads.items():
        baseline, base_timing = time_callable(
            lambda: cluster(graph, config), repeats=repeats, warmup=1
        )
        suite.add_row(
            f"{name}-simulated",
            metrics={
                "wall_seconds": base_timing.best,
                "f_objective": baseline.objective,
            },
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        )

        full_batch = np.arange(graph.num_vertices, dtype=np.int64)
        eval_walls = {}
        for workers in WORKER_SWEEP:
            with ProcessBackend(workers=workers, min_dispatch=64) as backend:
                result, timing = time_callable(
                    lambda: cluster(graph, config, RunOptions(backend=backend)),
                    repeats=repeats,
                    warmup=1,
                )
                stats = backend.stats()
                identical = bool(
                    np.array_equal(baseline.assignments, result.assignments)
                    and baseline.objective == result.objective
                )

                # Move-eval phase alone: one full-graph batch per call.
                state = ClusterState.singletons(graph)
                _, eval_timing = time_callable(
                    lambda: backend.batch_moves(
                        graph,
                        state,
                        full_batch,
                        BACKEND_RESOLUTION,
                        allow_escape=True,
                        swap_avoidance=False,
                    ),
                    repeats=repeats,
                    warmup=1,
                )
            eval_walls[workers] = eval_timing.best
            suite.add_row(
                f"{name}-process-w{workers}",
                metrics={
                    "wall_seconds": timing.best,
                    "moveeval_wall_seconds": eval_timing.best,
                    "f_objective": result.objective,
                    "speedup": base_timing.best / timing.best,
                    "moveeval_speedup": (
                        eval_walls[WORKER_SWEEP[0]] / eval_timing.best
                    ),
                },
                identical=identical,
                faulted=bool(stats["faulted"]),
                dispatches=int(stats["dispatches"]),
                bytes_shared=int(stats["bytes_shared"]),
            )
    return suite


#: Committed baseline name -> the suite that regenerates
#: ``benchmarks/baselines/BENCH_<name>.json``.
SUITES: Dict[str, Callable[..., BenchSuite]] = {
    "engines": engines_suite,
    "overhead": overhead_suite,
    "PR3": telemetry_suite,
    "PR4": kernels_suite,
    "PR7": dynamic_suite,
    "PR9": backend_suite,
}
