"""RunSupervisor behavior: clean runs, retries, watchdogs, salvage."""

import numpy as np
import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.errors import BudgetExhausted, CheckpointError
from repro.obs.instrument import (
    M_SUPERVISOR_ATTEMPTS,
    M_SUPERVISOR_FALLBACKS,
    M_SUPERVISOR_RETRIES,
    M_SUPERVISOR_WATCHDOG,
    Instrumentation,
)
from repro.resilience.context import ResiliencePolicy
from repro.resilience.faults import FaultKind, FaultPlan
from repro.resilience.guards import RunBudget
from repro.supervisor import RunSupervisor

pytestmark = pytest.mark.supervisor

CONFIG = ClusteringConfig(resolution=0.05, seed=7, num_workers=4)


def _fast_supervisor(**kwargs):
    """A supervisor with two attempts per rung (test matrices stay fast)."""
    kwargs.setdefault("max_attempts", 2)
    return RunSupervisor(**kwargs)


def _leaping_clock(step):
    """A fake clock that leaps ``step`` seconds per reading."""
    ticks = iter(range(0, 10_000, step))
    return lambda: float(next(ticks))


class TestCleanRun:
    def test_no_fault_run_is_invisible(self, karate):
        baseline = cluster(karate, CONFIG)
        supervised = _fast_supervisor().run(karate, CONFIG)
        assert np.array_equal(supervised.assignments, baseline.assignments)
        assert supervised.objective == baseline.objective
        assert not supervised.degraded
        meta = supervised.extras["supervisor"]
        assert meta == {
            "attempts": 1,
            "retries": 0,
            "fallbacks": 0,
            "watchdog_fires": 0,
            "rung": "as-configured",
            "salvaged": False,
        }

    def test_summary_reaches_stats_dict(self, karate):
        supervised = _fast_supervisor().run(karate, CONFIG)
        assert supervised.stats_dict()["supervisor"]["rung"] == "as-configured"

    def test_cluster_supervisor_kwarg_delegates(self, karate):
        via_kwarg = cluster(karate, CONFIG, RunOptions(supervisor=_fast_supervisor()))
        assert via_kwarg.extras["supervisor"]["attempts"] == 1


class TestRetry:
    def test_recovers_from_bounded_transients(self, karate):
        plan = FaultPlan.single(
            FaultKind.TRANSIENT, rate=0.5, seed=3, max_injections=2
        )
        baseline = cluster(karate, CONFIG)
        result = _fast_supervisor().run(
            karate, CONFIG, resilience=ResiliencePolicy(faults=plan)
        )
        assert not result.degraded
        meta = result.extras["supervisor"]
        assert meta["attempts"] > 1
        # Once the hazard exhausts its injection budget, a clean rerun
        # must land on the same clustering as a never-faulted run.
        assert np.array_equal(result.assignments, baseline.assignments)
        assert result.objective == baseline.objective
        assert any("supervisor:" in line for line in result.failure_log)

    def test_unbounded_faults_end_in_explicit_degradation(self, karate):
        plan = FaultPlan.single(FaultKind.TRANSIENT, rate=0.9, seed=1)
        result = _fast_supervisor().run(
            karate, CONFIG, resilience=ResiliencePolicy(faults=plan)
        )
        # Nothing can converge under a permanent 90% fault rate; the
        # contract is an explicitly degraded result, not a hang or crash.
        assert result.degraded
        assert result.failure_log
        meta = result.extras["supervisor"]
        assert meta["fallbacks"] == 2  # walked the whole default ladder
        assert meta["rung"] in ("graceful", "salvage")

    def test_corrupt_resume_checkpoint_falls_back_to_cold_start(
        self, karate, tmp_path
    ):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not a checkpoint")
        baseline = cluster(karate, CONFIG)
        result = _fast_supervisor().run(
            karate, CONFIG,
            resilience=ResiliencePolicy(resume_from=str(bad)),
        )
        assert not result.degraded
        assert np.array_equal(result.assignments, baseline.assignments)
        meta = result.extras["supervisor"]
        assert meta["retries"] >= 1
        assert any("unusable" in line for line in result.failure_log)

    def test_unsupervised_corrupt_resume_still_raises(self, karate, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError):
            cluster(
                karate, CONFIG,
                RunOptions(resilience=ResiliencePolicy(resume_from=str(bad))),
            )

    def test_eager_checkpoints_written_into_rotation(self, small_planted, tmp_path):
        supervisor = _fast_supervisor(
            checkpoint_dir=str(tmp_path), checkpoint_fraction=0.0
        )
        result = supervisor.run(small_planted.graph, CONFIG)
        assert not result.degraded
        written = list(tmp_path.glob("ckpt-*.npz"))
        assert written, "eager supervisor left no checkpoint behind"

    def test_supervised_resume_is_bit_identical(self, small_planted, tmp_path):
        # A checkpoint written by a plain run must resume under the
        # supervisor to the exact same answer — the property every
        # retry-from-checkpoint rests on.
        graph = small_planted.graph
        path = tmp_path / "resume.npz"
        full = cluster(
            graph, CONFIG,
            RunOptions(resilience=ResiliencePolicy(checkpoint_path=str(path))),
        )
        assert path.exists()
        resumed = _fast_supervisor().run(
            graph, CONFIG,
            resilience=ResiliencePolicy(resume_from=str(path)),
        )
        assert np.array_equal(resumed.assignments, full.assignments)
        assert resumed.objective == full.objective


class TestWatchdog:
    def test_level_deadline_degrades_on_graceful_rung(self, karate):
        instr = Instrumentation()
        result = _fast_supervisor().run(
            karate, CONFIG,
            resilience=ResiliencePolicy(
                budget=RunBudget(max_level_wall_seconds=1e-7)
            ),
            instrumentation=instr,
        )
        # Every strict rung trips the level deadline; the graceful rung
        # absorbs it and returns best-so-far, explicitly degraded.
        assert result.degraded
        meta = result.extras["supervisor"]
        assert meta["rung"] == "graceful"
        assert meta["watchdog_fires"] >= 1
        assert not meta["salvaged"]
        fired = instr.metrics.get(M_SUPERVISOR_WATCHDOG)
        assert fired is not None and fired.value(scope="level") >= 1

    def test_run_deadline_salvages(self, karate):
        # The clock leaps 10s per reading: the 5s whole-run cap is already
        # spent before the first attempt, forcing straight to salvage.
        instr = Instrumentation()
        supervisor = _fast_supervisor(clock=_leaping_clock(10))
        result = supervisor.run(
            karate, CONFIG,
            resilience=ResiliencePolicy(budget=RunBudget(max_wall_seconds=5.0)),
            instrumentation=instr,
        )
        assert result.degraded
        meta = result.extras["supervisor"]
        assert meta["salvaged"]
        assert meta["rung"] == "salvage"
        assert meta["attempts"] == 0
        assert meta["watchdog_fires"] == 1
        fired = instr.metrics.get(M_SUPERVISOR_WATCHDOG)
        assert fired.value(scope="run") == 1.0
        assert any("run deadline" in line for line in result.failure_log)

    def test_strict_run_deadline_raises(self, karate):
        supervisor = _fast_supervisor(clock=_leaping_clock(10))
        with pytest.raises(BudgetExhausted):
            supervisor.run(
                karate, CONFIG,
                resilience=ResiliencePolicy(
                    strict=True, budget=RunBudget(max_wall_seconds=5.0)
                ),
            )


class TestCallerBudget:
    def test_strict_caller_budget_propagates(self, karate):
        with pytest.raises(BudgetExhausted):
            _fast_supervisor().run(
                karate, CONFIG,
                resilience=ResiliencePolicy(
                    strict=True, budget=RunBudget(max_rounds=1)
                ),
            )

    def test_graceful_caller_budget_salvages_best_so_far(self, karate):
        result = _fast_supervisor().run(
            karate, CONFIG,
            resilience=ResiliencePolicy(budget=RunBudget(max_rounds=1)),
        )
        assert result.degraded
        meta = result.extras["supervisor"]
        assert meta["salvaged"]
        assert any("caller budget" in line for line in result.failure_log)

    def test_wall_cap_spans_every_attempt(self, karate):
        # The clock leaps 3s per reading, so the first attempt starts with
        # 2s of the 5s cap left and the retry would start at 6s.  The cap
        # covers the whole supervised run, not each attempt: the retry
        # never starts and the run salvages.
        plan = FaultPlan.single(FaultKind.TRANSIENT, rate=0.9, seed=1)
        result = _fast_supervisor(clock=_leaping_clock(3)).run(
            karate, CONFIG,
            resilience=ResiliencePolicy(
                faults=plan, budget=RunBudget(max_wall_seconds=5.0)
            ),
        )
        assert result.degraded
        meta = result.extras["supervisor"]
        assert meta["salvaged"]
        assert meta["attempts"] == 1
        assert meta["watchdog_fires"] == 1
        assert any("run deadline" in line for line in result.failure_log)


class TestObservability:
    def test_supervise_span_and_counters(self, karate):
        instr = Instrumentation()
        plan = FaultPlan.single(
            FaultKind.TRANSIENT, rate=0.5, seed=3, max_injections=2
        )
        result = _fast_supervisor().run(
            karate, CONFIG,
            resilience=ResiliencePolicy(faults=plan),
            instrumentation=instr,
        )
        assert not result.degraded
        spans = [rec["name"] for rec in instr.tracer.span_records()]
        assert "supervise" in spans
        meta = result.extras["supervisor"]
        attempts = instr.metrics.get(M_SUPERVISOR_ATTEMPTS)
        assert attempts.total() == meta["attempts"]
        retries = instr.metrics.get(M_SUPERVISOR_RETRIES)
        if meta["retries"]:
            assert retries.total() == meta["retries"]
        if meta["fallbacks"]:
            fallbacks = instr.metrics.get(M_SUPERVISOR_FALLBACKS)
            assert fallbacks.total() == meta["fallbacks"]
        events = [
            rec for rec in instr.tracer.event_records()
            if rec["name"] == "supervisor"
        ]
        assert events, "supervisor decisions missing from the trace"
