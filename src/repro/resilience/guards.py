"""Run budgets and graceful degradation guards.

A long multilevel run that blows its budget should not die with a
traceback: the :class:`RunBudget` caps simulated seconds (the ledger's
Brent-bound time), wall-clock seconds, total vertex moves, and total
best-move rounds.  The :class:`BudgetGuard` is consulted by the multilevel
driver after every engine invocation; on exhaustion the run stops
coarsening/refining, flattens the best-so-far clustering, and returns a
:class:`~repro.core.result.ClusterResult` flagged ``degraded=True`` with
the reason in ``failure_log`` — unless the resilience policy is strict, in
which case a typed :class:`~repro.errors.BudgetExhausted` is raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

#: Base simulated-seconds backoff for the first engine retry; doubles per
#: attempt (exponential backoff), charged to the ledger as serial time.
DEFAULT_BACKOFF_BASE = 1e-4


_BUDGET_FIELDS = (
    "max_sim_seconds",
    "max_wall_seconds",
    "max_moves",
    "max_rounds",
    "max_level_wall_seconds",
)


@dataclass(frozen=True)
class RunBudget:
    """Resource caps for one clustering run (``None`` = unlimited).

    ``max_level_wall_seconds`` is the per-level deadline: wall seconds
    one engine invocation (a level's best-moves or refine pass) may take
    before the guard reports a watchdog reason (``watchdog:`` prefix,
    raised as :class:`~repro.errors.WatchdogTimeout` under strict
    policy).  Under a :class:`~repro.supervisor.RunSupervisor`,
    ``max_wall_seconds`` caps the whole supervised run: every attempt
    gets what is left of it.  Both caps are cooperative guards that fire
    at the next consultation point, not mid-invocation.
    """

    max_sim_seconds: Optional[float] = None
    max_wall_seconds: Optional[float] = None
    max_moves: Optional[int] = None
    max_rounds: Optional[int] = None
    max_level_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name in _BUDGET_FIELDS:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")

    @property
    def unlimited(self) -> bool:
        return all(getattr(self, name) is None for name in _BUDGET_FIELDS)


def is_watchdog_reason(reason: str) -> bool:
    """Whether a guard message reports a watchdog deadline (vs a budget)."""
    return reason.startswith("watchdog:")


class BudgetGuard:
    """Evaluates a :class:`RunBudget` against a run's live counters."""

    def __init__(self, budget: RunBudget, sched=None) -> None:
        self.budget = budget
        self.sched = sched
        self._start_wall = time.perf_counter()
        self._invocation_started: Optional[float] = None

    def start_invocation(self) -> None:
        """Mark the start of one engine invocation (per-level watchdog).

        Called by :meth:`~repro.resilience.context.ResilienceContext.
        run_engine` so ``max_level_wall_seconds`` measures a single level's
        best-moves/refine pass, not the whole run.
        """
        self._invocation_started = time.perf_counter()

    def exceeded(self, moves: int, rounds: int) -> Optional[str]:
        """The first exhausted limit as a message, or ``None``.

        ``moves``/``rounds`` are the run's cumulative totals so far; the
        simulated time is read from the attached scheduler's ledger.
        """
        budget = self.budget
        if budget.max_moves is not None and moves >= budget.max_moves:
            return f"move budget exhausted ({moves} >= {budget.max_moves})"
        if budget.max_rounds is not None and rounds >= budget.max_rounds:
            return f"round budget exhausted ({rounds} >= {budget.max_rounds})"
        if budget.max_sim_seconds is not None and self.sched is not None:
            sim = self.sched.simulated_time()
            if sim >= budget.max_sim_seconds:
                return (
                    f"simulated-time budget exhausted "
                    f"({sim:.4g}s >= {budget.max_sim_seconds:g}s)"
                )
        if budget.max_wall_seconds is not None:
            wall = time.perf_counter() - self._start_wall
            if wall >= budget.max_wall_seconds:
                return (
                    f"wall-clock budget exhausted "
                    f"({wall:.3f}s >= {budget.max_wall_seconds:g}s)"
                )
        if (
            budget.max_level_wall_seconds is not None
            and self._invocation_started is not None
        ):
            level_wall = time.perf_counter() - self._invocation_started
            if level_wall >= budget.max_level_wall_seconds:
                return (
                    f"watchdog: level wall deadline exceeded "
                    f"({level_wall:.3f}s >= {budget.max_level_wall_seconds:g}s)"
                )
        return None


def backoff_seconds(attempt: int, base: float = DEFAULT_BACKOFF_BASE) -> float:
    """Exponential backoff delay (simulated seconds) before retry ``attempt``."""
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative, got {attempt}")
    return base * (2.0**attempt)
