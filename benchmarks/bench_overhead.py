"""Overhead: observation and supervision must be ~free.

The ``overhead`` suite (committed as ``benchmarks/baselines/
BENCH_overhead.json``) times one planted-partition workload four ways:
bare, with an :class:`~repro.obs.instrument.Instrumentation` constructed
but *disabled*, with it *enabled*, and *supervised* by a
:class:`~repro.supervisor.RunSupervisor` with no faults.

* Disabled instrumentation degenerates every hook to an attribute load
  plus an ``enabled`` check; no-fault supervision is bookkeeping plus a
  checkpoint throttle (``checkpoint_budget_fraction``).  Both target
  <3% wall clock over the bare run.  The assertions use a loose multiple
  of that target because CI wall clocks are noisy at millisecond scales
  (same convention as ``bench_resilience.py``).
* No variant may change the answer: the clustering, objective and
  simulated cost are asserted bit-identical, and the supervised run must
  finish on the first rung in one attempt with no degradation.
"""

from repro.bench.harness import ExperimentTable
from repro.bench.suites import overhead_suite

#: Design target for disabled instrumentation and no-fault supervision.
TARGET = 0.03
#: CI wall clocks are noisy at millisecond scales; assert a loose multiple.
WALL_TOLERANCE = 10.0

VARIANTS = ("disabled", "enabled", "supervised")


def test_overhead(benchmark):
    suite = benchmark.pedantic(
        overhead_suite, kwargs={"repeats": 5}, rounds=1, iterations=1
    )

    rows = {row.key: row for row in suite.rows}
    table = ExperimentTable(
        "Instrumentation and supervision overhead vs a bare run",
        ["configuration", "wall (s)", "slowdown", "identical"],
    )
    table.add_row(
        "baseline", f"{rows['baseline'].info['wall_seconds']:.4f}", "-", "-"
    )
    for key in VARIANTS:
        row = rows[key]
        table.add_row(
            key,
            f"{row.info['wall_seconds']:.4f}",
            f"{row.metrics['slowdown'] - 1.0:+.1%}",
            row.info["identical"],
        )
    table.emit()

    for key in VARIANTS:
        # Observation and no-fault supervision must never change the
        # clustering, the objective or the modeled parallel cost.
        assert rows[key].info["identical"], f"{key}: clustering diverged"
        assert rows[key].info["sim_identical"], f"{key}: simulated cost changed"

    supervised = rows["supervised"]
    assert supervised.info["attempts"] == 1, (
        f"no-fault run took {supervised.info['attempts']} attempts"
    )
    assert supervised.info["rung"] == "as-configured"
    assert not supervised.info["degraded"]

    for key in ("disabled", "supervised"):
        overhead = rows[key].metrics["slowdown"] - 1.0
        assert overhead < TARGET * WALL_TOLERANCE, (
            f"{key} costs {overhead:.1%}, far above the {TARGET:.0%} target"
        )
