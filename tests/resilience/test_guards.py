"""Run budgets: graceful degradation, strict raising, retry/backoff."""

import numpy as np
import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.errors import BudgetExhausted, ConfigError, TransientFault
from repro.parallel.scheduler import SimulatedScheduler
from repro.resilience import FaultPlan, ResiliencePolicy, RunBudget
from repro.resilience.guards import (
    BudgetGuard,
    backoff_seconds,
    is_watchdog_reason,
)


class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunBudget(max_moves=0)
        with pytest.raises(ConfigError):
            RunBudget(max_sim_seconds=-1.0)

    def test_unlimited(self):
        assert RunBudget().unlimited
        assert not RunBudget(max_rounds=5).unlimited

    def test_guard_moves_and_rounds(self):
        guard = BudgetGuard(RunBudget(max_moves=10, max_rounds=100))
        assert guard.exceeded(moves=5, rounds=5) is None
        assert "move budget" in guard.exceeded(moves=10, rounds=5)
        guard = BudgetGuard(RunBudget(max_rounds=3))
        assert "round budget" in guard.exceeded(moves=0, rounds=3)

    def test_guard_sim_seconds(self):
        sched = SimulatedScheduler(num_workers=4)
        sched.charge(work=1e12, depth=1.0, label="x")
        guard = BudgetGuard(RunBudget(max_sim_seconds=1e-3), sched=sched)
        assert "simulated-time" in guard.exceeded(moves=0, rounds=0)

    def test_backoff_is_exponential(self):
        assert backoff_seconds(1, base=0.5) == pytest.approx(1.0)
        assert backoff_seconds(3, base=0.5) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            backoff_seconds(-1)


class TestGracefulDegradation:
    def test_round_budget_returns_degraded_result(self, karate):
        config = ClusteringConfig(resolution=0.05, seed=7)
        result = cluster(
            karate,
            config,
            RunOptions(resilience=ResiliencePolicy(budget=RunBudget(max_rounds=1), audit=True)),
        )
        assert result.degraded
        assert any("round budget" in line for line in result.failure_log)
        # Best-so-far clustering is still a valid partition.
        n = karate.num_vertices
        assert result.assignments.shape == (n,)
        assert 0 <= result.assignments.min() <= result.assignments.max() < n

    def test_strict_budget_raises_typed_error(self, karate):
        config = ClusteringConfig(resolution=0.05, seed=7)
        with pytest.raises(BudgetExhausted):
            cluster(
                karate,
                config,
                RunOptions(resilience=ResiliencePolicy(
                    budget=RunBudget(max_rounds=1), strict=True
                )),
            )

    def test_unbudgeted_run_not_degraded(self, karate):
        config = ClusteringConfig(resolution=0.05, seed=7)
        result = cluster(karate, config, RunOptions(resilience=ResiliencePolicy(audit=True)))
        assert not result.degraded
        assert result.failure_log == []

    def test_budgeted_run_matches_clean_when_not_exhausted(self, karate):
        config = ClusteringConfig(resolution=0.05, seed=7)
        clean = cluster(karate, config)
        guarded = cluster(
            karate,
            config,
            RunOptions(resilience=ResiliencePolicy(budget=RunBudget(max_rounds=10_000))),
        )
        assert not guarded.degraded
        assert np.array_equal(clean.assignments, guarded.assignments)


class TestTransientRetries:
    def test_retries_then_degrades(self, karate):
        config = ClusteringConfig(resolution=0.05, seed=7)
        plan = FaultPlan(transient_rate=1.0, seed=0)
        result = cluster(
            karate,
            config,
            RunOptions(resilience=ResiliencePolicy(faults=plan, audit=True, max_retries=2)),
        )
        assert result.degraded
        assert any("backing off" in line for line in result.failure_log)
        assert any("giving up" in line for line in result.failure_log)

    def test_strict_reraises_transient(self, karate):
        config = ClusteringConfig(resolution=0.05, seed=7)
        plan = FaultPlan(transient_rate=1.0, seed=0)
        with pytest.raises(TransientFault):
            cluster(
                karate,
                config,
                RunOptions(resilience=ResiliencePolicy(faults=plan, strict=True, max_retries=1)),
            )

    def test_occasional_transients_are_absorbed(self, karate):
        config = ClusteringConfig(resolution=0.05, seed=7)
        plan = FaultPlan(transient_rate=0.05, seed=3, max_injections=2)
        result = cluster(
            karate,
            config,
            RunOptions(resilience=ResiliencePolicy(faults=plan, audit=True)),
        )
        # Bounded injections: retries absorb them and the run completes.
        assert result.assignments.size == karate.num_vertices


class TestWatchdogBudgetFields:
    def test_level_wall_deadline_needs_an_armed_invocation(self):
        guard = BudgetGuard(RunBudget(max_level_wall_seconds=1e-9))
        # Never armed: the per-level deadline cannot fire.
        assert guard.exceeded(moves=0, rounds=0) is None
        guard.start_invocation()
        reason = guard.exceeded(moves=0, rounds=0)
        assert reason is not None
        assert is_watchdog_reason(reason)

    def test_rearming_resets_the_level_clock(self):
        guard = BudgetGuard(RunBudget(max_level_wall_seconds=30.0))
        guard.start_invocation()
        assert guard.exceeded(moves=0, rounds=0) is None
        guard.start_invocation()
        assert guard.exceeded(moves=0, rounds=0) is None

    def test_is_watchdog_reason_distinguishes_budget_messages(self):
        assert is_watchdog_reason("watchdog: level wall deadline exceeded")
        assert not is_watchdog_reason("round budget exhausted (3 >= 3)")
        assert not is_watchdog_reason("")

    def test_level_wall_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunBudget(max_level_wall_seconds=0.0)
