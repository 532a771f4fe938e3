"""Resilience policy and per-run context.

:class:`ResiliencePolicy` is the user-facing bundle — which faults to
inject, what budget to enforce, whether to audit, where to checkpoint —
attached to a run via ``cluster(graph, config,
RunOptions(resilience=policy))`` or the
``--audit/--time-budget/--checkpoint/--resume/--inject`` CLI flags.

:class:`ResilienceContext` is the runtime companion the multilevel driver
consults: it wraps states for fault injection, wraps engine invocations in
retry-with-exponential-backoff, audits (and under graceful degradation
repairs) state at level boundaries, evaluates budget guards, and writes
checkpoints.  One context serves one run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.state import ClusterState
from repro.obs.instrument import (
    M_RESILIENCE_EVENTS,
    M_SUPERVISOR_WATCHDOG,
    instr_of,
)
from repro.errors import (
    BudgetExhausted,
    ConfigError,
    InvariantViolation,
    TransientFault,
    WatchdogTimeout,
)
from repro.resilience.audit import DEFAULT_TOLERANCE, StateAuditor
from repro.resilience.checkpoint import (
    MultilevelCheckpoint,
    capture_rng,
    load_checkpoint,
    restore_rng,
    save_checkpoint,
)
from repro.resilience.faults import FaultPlan, FaultyClusterState
from repro.resilience.guards import (
    BudgetGuard,
    RunBudget,
    backoff_seconds,
    is_watchdog_reason,
)

#: Simulated core frequency (mirrors the scheduler's constant) used to
#: charge backoff delays to the ledger as serialized operations.
_OPS_PER_SECOND = 2.0e9

#: Assumed cost of a checkpoint write before the first one is measured.
#: Under a nonzero ``checkpoint_budget_fraction`` this floor is what makes
#: short runs write nothing: the first write only becomes eligible once
#: ``floor / fraction`` seconds of run wall have passed.
_CHECKPOINT_COST_FLOOR = 0.005


@dataclass
class ResiliencePolicy:
    """What the resilience layer should do for one run."""

    #: Hazards to inject (``None`` = run clean).
    faults: Optional[FaultPlan] = None
    #: Resource caps (``None`` = unlimited).
    budget: Optional[RunBudget] = None
    #: Audit state at level boundaries and the final result.
    audit: bool = False
    #: Raise typed errors instead of degrading gracefully.
    strict: bool = False
    #: Engine retries on injected transient faults before degrading.
    max_retries: int = 3
    audit_tolerance: float = DEFAULT_TOLERANCE
    #: Write a checkpoint here after every ``checkpoint_every`` levels.
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    #: Resume from this checkpoint file instead of starting fresh.
    resume_from: Optional[str] = None
    #: Cap checkpoint I/O at this fraction of run wall time (0 = write at
    #: every eligible level boundary).  With fraction ``f``, a write is
    #: skipped until ``f *`` (wall since the last write) covers the last
    #: write's measured cost — so short runs write nothing and long runs
    #: spend at most ~``f`` of their wall on checkpointing.  The
    #: supervisor uses this to keep its no-fault overhead under budget.
    checkpoint_budget_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if not 0.0 <= self.checkpoint_budget_fraction < 1.0:
            raise ConfigError(
                "checkpoint_budget_fraction must be in [0, 1), got "
                f"{self.checkpoint_budget_fraction}"
            )


class ResilienceContext:
    """Runtime state of one resilient run (see module docstring)."""

    def __init__(
        self, policy: ResiliencePolicy, sched=None, seed: Optional[int] = None
    ) -> None:
        self.policy = policy
        self.sched = sched
        #: The run's concrete seed, written into every checkpoint.
        self.seed = seed
        if sched is not None:
            # The scheduler is the conduit to the atomics/frontier hooks.
            sched.faults = policy.faults
        # Observability rides the same conduit (a disabled no-op otherwise).
        self.instr = instr_of(sched)
        self.failure_log: List[str] = []
        self.degraded = False
        self.stopped = False  # budget exhausted: no further engine work
        self.auditor = StateAuditor(policy.audit_tolerance) if policy.audit else None
        self.guard = (
            BudgetGuard(policy.budget, sched=sched) if policy.budget else None
        )
        self._tag: Optional[str] = None
        self._num_vertices = 0
        # Checkpoint-throttle state (checkpoint_budget_fraction > 0).
        self._ckpt_epoch = time.perf_counter()
        self._last_ckpt_time: Optional[float] = None
        self._last_ckpt_cost = _CHECKPOINT_COST_FLOOR

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, graph, resolution: float, config) -> None:
        """Associate the context with the run it will guard."""
        self._tag = config.config_tag(resolution)
        self._num_vertices = graph.num_vertices
        self._ckpt_epoch = time.perf_counter()

    def note(self, message: str, kind: str = "note") -> None:
        self.failure_log.append(message)
        self.instr.event("resilience", kind=kind, message=message)
        self.instr.count(M_RESILIENCE_EVENTS, 1.0, kind=kind)

    def degrade(self, message: str, kind: str = "degrade") -> None:
        self.degraded = True
        self.note(message, kind=kind)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def wrap_state(self, state: ClusterState) -> ClusterState:
        if self.policy.faults is None:
            return state
        return FaultyClusterState(state, self.policy.faults)

    # ------------------------------------------------------------------
    # engine invocation: retry with backoff, then audit/repair
    # ------------------------------------------------------------------
    def run_engine(
        self,
        best_moves_fn,
        graph,
        state: ClusterState,
        resolution: float,
        config,
        sched=None,
        rng=None,
        where: str = "best-moves",
    ):
        """Run one engine invocation under the policy.

        Returns the engine's stats, or ``None`` when retries were
        exhausted and the run degraded (the caller accepts the current
        state as best-so-far).  The state is always left consistent:
        pending (stale) updates are flushed and, when auditing with
        graceful degradation, corrupted aggregates are resynced.
        """
        stats = None
        if self.guard is not None:
            # Arm the per-level watchdog: max_level_wall_seconds measures
            # this one invocation, not the run.
            self.guard.start_invocation()
        for attempt in range(self.policy.max_retries + 1):
            if self.policy.faults is not None:
                # Deferred frontier vertices are ids on *this* level's
                # graph; they must not leak across engine invocations.
                self.policy.faults.reset_frontier()
            try:
                stats = best_moves_fn(
                    graph, state, resolution, config, sched=sched, rng=rng
                )
                break
            except TransientFault as exc:
                if attempt == self.policy.max_retries:
                    if self.policy.strict:
                        raise
                    self.degrade(
                        f"{where}: giving up after {attempt + 1} attempts: {exc}",
                        kind="retries-exhausted",
                    )
                    break
                delay = backoff_seconds(attempt)
                self.note(
                    f"{where}: transient fault (attempt {attempt + 1}/"
                    f"{self.policy.max_retries + 1}), backing off {delay:g}s: {exc}",
                    kind="retry",
                )
                if self.sched is not None:
                    self.sched.charge(
                        work=0.0,
                        depth=0.0,
                        serial=delay * _OPS_PER_SECOND,
                        label="retry-backoff",
                    )
        if isinstance(state, FaultyClusterState):
            state.flush_pending(sched=sched)
        self.audit_state(graph, state, resolution, where=where)
        return stats

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------
    def audit_state(self, graph, state, resolution, where: str = "") -> None:
        """Audit ``state``; repair (non-strict) or raise (strict/fatal)."""
        if self.auditor is None:
            return
        issues = self.auditor.verify_state(graph, state, resolution)
        if not issues:
            return
        label = where or "audit"
        if self.policy.strict:
            raise InvariantViolation(f"{label}: " + "; ".join(issues))
        fatal = [i for i in issues if "labels" in i or "shape" in i]
        if fatal:
            # Corrupt labels cannot be repaired from aggregates.
            raise InvariantViolation(f"{label}: " + "; ".join(fatal))
        repaired = self.auditor.resync(state)
        self.degrade(
            f"{label}: invariant violation ({'; '.join(issues)}); "
            f"resynced {', '.join(repaired) or 'nothing'}",
            kind="audit-repair",
        )

    # ------------------------------------------------------------------
    # budget guards
    # ------------------------------------------------------------------
    def budget_stop(self, total_moves: int, total_rounds: int) -> bool:
        """True once the budget is exhausted (then stays true)."""
        if self.stopped:
            return True
        if self.guard is None:
            return False
        reason = self.guard.exceeded(total_moves, total_rounds)
        if reason is None:
            return False
        watchdog = is_watchdog_reason(reason)
        if self.policy.strict:
            if watchdog:
                raise WatchdogTimeout(reason)
            raise BudgetExhausted(reason)
        self.stopped = True
        if watchdog:
            self.instr.count(M_SUPERVISOR_WATCHDOG, 1.0, scope="level")
            self.degrade(
                f"{reason}; returning best-so-far clustering",
                kind="watchdog-stop",
            )
        else:
            self.degrade(
                f"{reason}; returning best-so-far clustering", kind="budget-stop"
            )
        return True

    # ------------------------------------------------------------------
    # checkpoint/resume
    # ------------------------------------------------------------------
    def load_resume(self, rng=None) -> Optional[MultilevelCheckpoint]:
        """Load the resume checkpoint (restoring ``rng`` in place), if any."""
        if self.policy.resume_from is None:
            return None
        ckpt = load_checkpoint(
            self.policy.resume_from,
            config_tag=self._tag,
            num_vertices=self._num_vertices,
        )
        restore_rng(rng, ckpt.rng_state)
        self.note(
            f"resumed from {self.policy.resume_from} at level {ckpt.level}",
            kind="resume",
        )
        return ckpt

    def maybe_checkpoint(self, level, current, retained, stats, rng=None) -> None:
        """Write a checkpoint at this level boundary if the policy asks."""
        if self.policy.checkpoint_path is None:
            return
        if level % self.policy.checkpoint_every != 0:
            return
        fraction = self.policy.checkpoint_budget_fraction
        if fraction > 0.0:
            since = time.perf_counter() - (
                self._last_ckpt_time
                if self._last_ckpt_time is not None
                else self._ckpt_epoch
            )
            if since * fraction < self._last_ckpt_cost:
                return
        started = time.perf_counter()
        self.instr.event(
            "resilience",
            kind="checkpoint",
            level=level,
            path=str(self.policy.checkpoint_path),
        )
        self.instr.count(M_RESILIENCE_EVENTS, 1.0, kind="checkpoint")
        save_checkpoint(
            self.policy.checkpoint_path,
            MultilevelCheckpoint(
                level=level,
                current=current,
                retained=list(retained),
                rng_state=capture_rng(rng),
                stats=stats,
                config_tag=self._tag or "",
                num_vertices=self._num_vertices,
                seed=self.seed,
            ),
        )
        self._last_ckpt_time = time.perf_counter()
        self._last_ckpt_cost = self._last_ckpt_time - started
