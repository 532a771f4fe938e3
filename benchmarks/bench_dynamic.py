"""Dynamic updates: localized refinement must beat full recompute.

The contract: on LFR churn batches touching <= 1% of the edges, a
:class:`~repro.dynamic.clusterer.DynamicClusterer` batch — engine seeded
from just the touched endpoints — evaluates >= 5x fewer candidate moves
than a full single-level sweep from the same warm partition on the same
updated graph, and lands on an equal final objective (|delta F| <= 1e-9;
both paths run the deterministic sequential engine, so in practice the
assignments come out identical, which is asserted too).

The same suite is committed as ``benchmarks/baselines/BENCH_PR7.json``
(regenerate with ``python -m repro.bench emit PR7 --out
benchmarks/baselines``).
"""

from repro.bench.harness import ExperimentTable
from repro.bench.suites import (
    OBJECTIVE_TOLERANCE,
    TARGET_EVAL_RATIO,
    dynamic_suite,
)


def test_dynamic_localized_refinement(benchmark):
    suite = benchmark.pedantic(
        dynamic_suite, kwargs={"repeats": 3}, rounds=1, iterations=1
    )

    rows = {row.key: row for row in suite.rows}
    full = rows["full-recompute"]
    inc = rows["incremental"]
    table = ExperimentTable(
        "Dynamic updates: candidate-move evaluations per churn batch",
        ["path", "evals", "wall (s)", "ratio", "|dF|", "identical"],
    )
    table.add_row(
        "full-recompute",
        int(full.metrics["candidate_evals"]),
        f"{full.metrics['wall_seconds']:.4f}",
        "-",
        "-",
        "-",
    )
    table.add_row(
        "incremental",
        int(inc.metrics["candidate_evals"]),
        f"{inc.metrics['wall_seconds']:.4f}",
        f"{inc.metrics['eval_ratio']:.1f}x",
        f"{inc.metrics['f_delta_abs']:.3g}",
        inc.info["identical"],
    )
    table.emit()

    assert inc.metrics["eval_ratio"] >= TARGET_EVAL_RATIO, (
        f"incremental path evaluated only {inc.metrics['eval_ratio']:.2f}x "
        f"fewer candidates than full recompute (need >= {TARGET_EVAL_RATIO}x)"
    )
    assert inc.metrics["f_delta_abs"] <= OBJECTIVE_TOLERANCE, (
        f"objectives diverged by {inc.metrics['f_delta_abs']:.3g} "
        f"(tolerance {OBJECTIVE_TOLERANCE})"
    )
    assert inc.info["identical"], (
        "incremental and full-recompute assignments diverged"
    )
