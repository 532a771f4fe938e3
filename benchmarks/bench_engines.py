"""All scheduling engines, one table.

The paper's design-space argument in one view: for each BEST-MOVES
scheduling discipline — the relaxed asynchronous engine it chose, the
synchronous strawman, the conflict-free prefix alternative it rejected,
Grappolo-style coloring, and the event-driven asynchrony oracle — report
end-to-end multilevel objective and simulated time.  Expected shape: the
relaxed asynchronous engine sits on the quality/speed Pareto front, which
is the paper's Section 3.2/4.1 thesis.

Rows are collected through :class:`repro.bench.harness.BenchSuite`, the
same machinery behind the committed ``BENCH_*.json`` baselines, so the
script shares its timing and row bookkeeping with every other bench.
"""

from repro.bench.datasets import benchmark_surrogate
from repro.bench.harness import BenchSuite, ExperimentTable, time_callable
from repro.core.config import ClusteringConfig, Mode
from repro.core.engines import multilevel_with_engine
from repro.core.objective import lambdacc_objective
from repro.parallel.scheduler import SimulatedScheduler
from repro.utils.rng import make_rng

ENGINE_SETUPS = [
    ("async (paper)", "relaxed", Mode.ASYNC),
    ("sync", "relaxed", Mode.SYNC),
    ("prefix", "prefix", Mode.ASYNC),
    ("colored", "colored", Mode.ASYNC),
    ("event oracle", "event", Mode.ASYNC),
    ("sequential", "sequential", Mode.ASYNC),
]


def run_engines() -> BenchSuite:
    graph = benchmark_surrogate("amazon", seed=0, scale=0.5).graph
    suite = BenchSuite(
        "engines_amazon",
        meta={"workload": "amazon surrogate (seed=0, scale=0.5)"},
    )
    for lam in (0.1, 0.85):
        for label, engine, mode in ENGINE_SETUPS:
            config = ClusteringConfig(
                resolution=lam, mode=mode, refine=False, seed=1, num_workers=60
            )

            def run(lam=lam, engine=engine, config=config):
                sched = SimulatedScheduler(num_workers=60)
                assignments, stats = multilevel_with_engine(
                    graph, lam, config, engine=engine, sched=sched,
                    rng=make_rng(1),
                )
                return assignments, stats, sched

            (assignments, stats, sched), timing = time_callable(run, repeats=1)
            workers = 1 if engine == "sequential" else 60
            suite.add_row(
                f"lambda={lam}/{label}",
                metrics={
                    "f_objective": lambdacc_objective(graph, assignments, lam),
                    "sim_time_seconds": sched.simulated_time(workers),
                },
                resolution=lam,
                engine_label=label,
                rounds=stats.total_iterations,
                wall_seconds=timing.best,
            )
    return suite


def test_engine_comparison(benchmark):
    suite = benchmark.pedantic(run_engines, rounds=1, iterations=1)

    table = ExperimentTable(
        "Engine comparison (amazon surrogate, multilevel, no refinement)",
        ["lambda", "engine", "objective F", "sim_time", "rounds"],
    )
    for row in suite.rows:
        table.add_row(
            row.info["resolution"],
            row.info["engine_label"],
            row.metrics["f_objective"],
            row.metrics["sim_time_seconds"],
            row.info["rounds"],
        )
    table.emit()

    by = {
        (row.info["resolution"], row.info["engine_label"]):
            (row.metrics["f_objective"], row.metrics["sim_time_seconds"])
        for row in suite.rows
    }
    for lam in (0.1, 0.85):
        async_f, async_t = by[(lam, "async (paper)")]
        # The paper's engine is never dominated: every alternative is
        # slower, lower-objective, or both.
        for label in ("sync", "prefix", "colored", "sequential"):
            f, t = by[(lam, label)]
            assert f <= async_f * 1.05 or t >= async_t * 0.95, (lam, label)
        # And it matches the fine-grained oracle's quality.
        event_f, _ = by[(lam, "event oracle")]
        assert async_f > 0.8 * event_f
