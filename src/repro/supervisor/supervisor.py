"""The run supervisor: retries, watchdogs, fallback ladder, salvage.

See the package docstring for the state machine.  The supervisor never
re-implements clustering semantics — it drives
:func:`repro.core.api.cluster` repeatedly, turning the resilience layer's
typed errors into recovery decisions:

* attempts on the upper rungs run under an internally *strict* policy
  with zero inner retries, so every transient fault, invariant violation,
  or deadline surfaces as an exception the supervisor can act on;
* each retry resumes from the newest good checkpoint (alternating
  two-slot rotation, so a corrupt latest checkpoint falls back to the
  previous one instead of a cold restart);
* the final ``graceful`` rung hands control back to the resilience
  layer's own absorb-and-degrade machinery;
* if even that fails, a salvage run (graceful, one-round budget) flattens
  the best-so-far clustering from the newest checkpoint and returns it
  explicitly marked ``degraded``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.core.result import ClusterResult
from repro.errors import (
    BudgetExhausted,
    CheckpointError,
    InvariantViolation,
    ReproError,
    SupervisorExhausted,
    TransientFault,
    WatchdogTimeout,
)
from repro.graphs.csr import CSRGraph
from repro.obs.instrument import (
    M_SUPERVISOR_ATTEMPTS,
    M_SUPERVISOR_BACKOFF,
    M_SUPERVISOR_FALLBACKS,
    M_SUPERVISOR_RETRIES,
    M_SUPERVISOR_WATCHDOG,
    NULL_INSTRUMENTATION,
    Instrumentation,
)
from repro.resilience.checkpoint import SlotPair
from repro.resilience.context import ResiliencePolicy
from repro.resilience.guards import RunBudget, merge_budgets
from repro.supervisor.policy import FallbackLadder, RetryPolicy, Rung, Watchdog

#: Failures worth re-running from a checkpoint: injected transients and
#: state corruption (recovery-by-rerun is cheap when levels are
#: idempotent from a checkpoint).  Everything else either ends the run
#: (budgets) or is a programming error the supervisor must not mask.
_RETRYABLE = (TransientFault, InvariantViolation)

_REASONS = {
    TransientFault: "transient-fault",
    InvariantViolation: "invariant-violation",
    WatchdogTimeout: "watchdog",
    CheckpointError: "checkpoint-corrupt",
}

#: Default cap on checkpoint I/O as a fraction of run wall time (see
#: ``ResiliencePolicy.checkpoint_budget_fraction``).  This is what keeps
#: the supervisor's no-fault overhead under the <3% budget: short runs
#: never amortize a write so they skip checkpointing entirely, long runs
#: spend at most ~2% of wall on it.
DEFAULT_CHECKPOINT_FRACTION = 0.02


def _reason(exc: Exception) -> str:
    for kind, label in _REASONS.items():
        if isinstance(exc, kind):
            return label
    return type(exc).__name__


class CheckpointRotation:
    """Two alternating checkpoint slots (a :class:`SlotPair`) with a
    recency order.

    Attempts alternate slots, so an attempt never overwrites the
    checkpoint the previous attempt wrote; :meth:`latest` is the
    resume candidate and :meth:`drop_latest` discards it when it turns
    out to be corrupt, exposing the previous good one.
    """

    def __init__(self, directory) -> None:
        self.slots = SlotPair(directory, "ckpt")
        self._last: Optional[Path] = None
        self._history: List[Path] = []  # oldest first, newest last
        self._active: Optional[Path] = None
        self._active_stamp: Optional[int] = None

    @staticmethod
    def _stamp(path: Path) -> Optional[int]:
        try:
            return path.stat().st_mtime_ns
        except OSError:
            return None

    def begin_attempt(self) -> Path:
        """The slot the next attempt should checkpoint into."""
        self._active = self._last = self.slots.other(self._last)
        self._active_stamp = self._stamp(self._active)
        return self._active

    def end_attempt(self) -> bool:
        """Record whether the attempt left a new checkpoint in its slot."""
        slot, stamp = self._active, self._active_stamp
        self._active = None
        self._active_stamp = None
        if slot is None:
            return False
        current = self._stamp(slot)
        if current is None or current == stamp:
            return False
        if slot in self._history:
            self._history.remove(slot)
        self._history.append(slot)
        return True

    def latest(self) -> Optional[Path]:
        return self._history[-1] if self._history else None

    def drop_latest(self) -> Optional[Path]:
        return self._history.pop() if self._history else None


class _RunDeadline(Exception):
    """Internal: the whole-run watchdog deadline passed (go salvage)."""


class _SalvageNow(Exception):
    """Internal: skip the remaining rungs and salvage (caller budget)."""


class _LadderExhausted(Exception):
    """Internal: every rung failed (go salvage)."""

    def __init__(self, cause: Exception) -> None:
        super().__init__(str(cause))
        self.cause = cause


class RunSupervisor:
    """Supervised execution of clustering jobs (see module docstring).

    ``clock``/``sleep`` are injectable for tests and chaos runs (a chaos
    matrix should not serve real backoff sleeps).
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        watchdog: Optional[Watchdog] = None,
        ladder: Optional[FallbackLadder] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_fraction: float = DEFAULT_CHECKPOINT_FRACTION,
        clock=time.perf_counter,
        sleep=time.sleep,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        self.ladder = ladder
        self.checkpoint_dir = checkpoint_dir
        #: Checkpoint I/O throttle applied to every attempt (0 = write at
        #: every level boundary; tests use 0 to force eager checkpoints).
        self.checkpoint_fraction = checkpoint_fraction
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        config: ClusteringConfig,
        resilience: Optional[ResiliencePolicy] = None,
        instrumentation: Optional[Instrumentation] = None,
        engine: Optional[str] = None,
    ) -> ClusterResult:
        """Cluster ``graph`` under supervision; same contract as ``cluster``.

        The returned result additionally carries the supervisor's decision
        log (prepended to ``failure_log``) and an ``extras["supervisor"]``
        summary; a salvaged run is always ``degraded=True``.
        """
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        base = resilience if resilience is not None else ResiliencePolicy()
        ladder = (
            self.ladder
            if self.ladder is not None
            else FallbackLadder.for_run(config, engine=engine)
        )
        state = _RunState(start=self._clock())
        with instr.span(
            "supervise",
            rungs=",".join(r.name for r in ladder.rungs),
            max_attempts=self.retry.max_attempts_per_rung,
        ) as span:
            if self.checkpoint_dir is not None:
                result = self._drive(
                    graph, config, base, engine, ladder,
                    CheckpointRotation(self.checkpoint_dir), instr, state,
                )
            else:
                with tempfile.TemporaryDirectory(prefix="repro-supervisor-") as tmp:
                    result = self._drive(
                        graph, config, base, engine, ladder,
                        CheckpointRotation(tmp), instr, state,
                    )
            span.set(
                attempts=state.attempts,
                retries=state.retries,
                fallbacks=state.fallbacks,
                watchdog_fires=state.watchdog_fires,
                rung=state.final_rung,
                salvaged=state.salvaged,
                degraded=result.degraded,
            )
        return result

    # ------------------------------------------------------------------
    # the drive loop
    # ------------------------------------------------------------------
    def _drive(
        self, graph, config, base, engine, ladder, rotation, instr, state
    ) -> ClusterResult:
        resume = Path(base.resume_from) if base.resume_from else None
        try:
            result, resume = self._try_ladder(
                graph, config, base, engine, ladder, rotation, instr, state, resume
            )
        except _RunDeadline:
            state.watchdog_fires += 1
            instr.count(M_SUPERVISOR_WATCHDOG, 1.0, scope="run")
            self._note(
                state, instr,
                f"watchdog: run deadline "
                f"({self.watchdog.run_deadline_seconds:g}s) exceeded; salvaging",
                kind="watchdog",
            )
            result = self._salvage(
                graph, config, base, engine, rotation, instr, state
            )
        except _SalvageNow:
            result = self._salvage(
                graph, config, base, engine, rotation, instr, state
            )
        except _LadderExhausted as exc:
            self._note(
                state, instr,
                f"all {len(ladder)} rungs exhausted ({exc.cause}); salvaging",
                kind="ladder-exhausted",
            )
            result = self._salvage(
                graph, config, base, engine, rotation, instr, state
            )
        return self._finalize(result, state)

    def _try_ladder(
        self, graph, config, base, engine, ladder, rotation, instr, state, resume
    ) -> Tuple[ClusterResult, Optional[Path]]:
        from repro.core.api import cluster  # deferred: api imports us lazily too

        last_error: Exception = SupervisorExhausted("no attempt ran")
        for rung_index, rung in enumerate(ladder.rungs):
            if rung_index > 0:
                state.fallbacks += 1
                instr.count(M_SUPERVISOR_FALLBACKS, 1.0, rung=rung.name)
                self._note(
                    state, instr,
                    f"falling back to rung {rung.name!r} after {last_error}",
                    kind="fallback", rung=rung.name,
                )
            attempt = 0
            while attempt < self.retry.max_attempts_per_rung:
                attempt += 1
                elapsed = self._clock() - state.start
                if self.watchdog.expired(elapsed):
                    raise _RunDeadline()
                slot = rotation.begin_attempt()
                run_config, run_engine, policy = self._rung_setup(
                    rung, config, base, engine, resume, slot, elapsed
                )
                state.attempts += 1
                state.final_rung = rung.name
                instr.count(M_SUPERVISOR_ATTEMPTS, 1.0, rung=rung.name)
                instr.event(
                    "supervisor", kind="attempt", rung=rung.name,
                    attempt=attempt, resume=str(resume) if resume else "",
                )
                try:
                    result = cluster(
                        graph, run_config,
                        RunOptions(
                            resilience=policy, instrumentation=instr,
                            engine=run_engine,
                        ),
                    )
                except CheckpointError as exc:
                    rotation.end_attempt()
                    last_error = exc
                    if resume is not None and resume == rotation.latest():
                        rotation.drop_latest()
                    previous = rotation.latest()
                    self._note(
                        state, instr,
                        f"checkpoint {resume} unusable ({exc}); "
                        + (f"falling back to {previous}" if previous
                           else "restarting cold"),
                        kind="checkpoint-corrupt",
                    )
                    resume = previous
                    state.retries += 1
                    instr.count(
                        M_SUPERVISOR_RETRIES, 1.0, reason="checkpoint-corrupt"
                    )
                    continue
                except WatchdogTimeout as exc:
                    resume = self._resume_after(rotation, resume)
                    last_error = exc
                    state.watchdog_fires += 1
                    instr.count(M_SUPERVISOR_WATCHDOG, 1.0, scope="level")
                    self._note(
                        state, instr,
                        f"rung {rung.name!r}: {exc}; descending the ladder",
                        kind="watchdog",
                    )
                    break  # a deterministic hang will hang again: next rung
                except BudgetExhausted as exc:
                    resume = self._resume_after(rotation, resume)
                    if self.watchdog.expired(self._clock() - state.start):
                        raise _RunDeadline() from exc
                    # The caller's own budget, not a fault: strict callers
                    # get the error, graceful callers get best-so-far.
                    if base.strict:
                        raise
                    self._note(
                        state, instr,
                        f"caller budget exhausted ({exc}); salvaging best-so-far",
                        kind="budget",
                    )
                    raise _SalvageNow() from exc
                except _RETRYABLE as exc:
                    resume = self._resume_after(rotation, resume)
                    last_error = exc
                    if attempt >= self.retry.max_attempts_per_rung:
                        break
                    delay = self.retry.delay(attempt)
                    state.retries += 1
                    instr.count(M_SUPERVISOR_RETRIES, 1.0, reason=_reason(exc))
                    instr.observe(M_SUPERVISOR_BACKOFF, delay)
                    self._note(
                        state, instr,
                        f"rung {rung.name!r} attempt {attempt}/"
                        f"{self.retry.max_attempts_per_rung} failed "
                        f"({_reason(exc)}: {exc}); backing off {delay:g}s and "
                        + (f"resuming from {resume}" if resume
                           else "restarting cold"),
                        kind="retry",
                    )
                    self._sleep(delay)
                else:
                    self._resume_after(rotation, resume)
                    if state.attempts > 1 or rung_index > 0:
                        self._note(
                            state, instr,
                            f"recovered on rung {rung.name!r} "
                            f"(attempt {state.attempts} overall)",
                            kind="recovered",
                        )
                    return result, resume
        raise _LadderExhausted(last_error)

    # ------------------------------------------------------------------
    # per-attempt assembly
    # ------------------------------------------------------------------
    def _rung_setup(
        self, rung: Rung, config, base, engine, resume, slot, elapsed
    ):
        run_config = (
            config.with_options(kernel=rung.kernel)
            if rung.kernel is not None
            else config
        )
        run_engine = rung.engine if rung.engine is not None else engine
        budget = merge_budgets(base.budget, self.watchdog.budget(elapsed))
        policy = replace(
            base,
            budget=budget,
            # Upper rungs run strict with zero inner retries so faults
            # surface here; the graceful rung restores the caller's own
            # absorb-and-degrade semantics.
            strict=False if rung.graceful else True,
            max_retries=base.max_retries if rung.graceful else 0,
            checkpoint_path=str(slot),
            checkpoint_budget_fraction=self.checkpoint_fraction,
            resume_from=str(resume) if resume is not None else None,
        )
        return run_config, run_engine, policy

    @staticmethod
    def _resume_after(rotation, resume) -> Optional[Path]:
        """The resume candidate after an attempt: its checkpoint if it
        wrote one, otherwise whatever we resumed from before."""
        rotation.end_attempt()
        return rotation.latest() or resume

    # ------------------------------------------------------------------
    # salvage
    # ------------------------------------------------------------------
    def _salvage(
        self, graph, config, base, engine, rotation, instr, state
    ) -> ClusterResult:
        from repro.core.api import cluster

        resume = rotation.latest()
        state.salvaged = True
        state.final_rung = "salvage"
        instr.count(M_SUPERVISOR_ATTEMPTS, 1.0, rung="salvage")
        self._note(
            state, instr,
            "salvage: graceful one-round run "
            + (f"from {resume}" if resume else "from scratch")
            + " to flatten best-so-far",
            kind="salvage",
        )
        policy = replace(
            base,
            budget=merge_budgets(base.budget, RunBudget(max_rounds=1)),
            strict=False,
            max_retries=max(base.max_retries, 1),
            checkpoint_path=None,
            resume_from=str(resume) if resume is not None else None,
        )
        try:
            result = cluster(
                graph, config,
                RunOptions(
                    resilience=policy, instrumentation=instr, engine=engine,
                ),
            )
        except CheckpointError:
            # Even the salvage checkpoint is bad: last resort, cold.
            rotation.drop_latest()
            policy = replace(policy, resume_from=None)
            try:
                result = cluster(
                    graph, config,
                    RunOptions(
                        resilience=policy, instrumentation=instr,
                        engine=engine,
                    ),
                )
            except ReproError as exc:
                raise SupervisorExhausted(
                    f"salvage run failed after ladder exhaustion: {exc}"
                ) from exc
        except ReproError as exc:
            raise SupervisorExhausted(
                f"salvage run failed after ladder exhaustion: {exc}"
            ) from exc
        result.degraded = True
        return result

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _note(self, state, instr, message: str, kind: str, **attrs) -> None:
        state.log.append(f"supervisor: {message}")
        instr.event("supervisor", kind=kind, message=message, **attrs)

    def _finalize(self, result: ClusterResult, state) -> ClusterResult:
        result.failure_log = state.log + result.failure_log
        result.extras["supervisor"] = {
            "attempts": state.attempts,
            "retries": state.retries,
            "fallbacks": state.fallbacks,
            "watchdog_fires": state.watchdog_fires,
            "rung": state.final_rung,
            "salvaged": state.salvaged,
        }
        return result


class _RunState:
    """Mutable per-run counters + decision log (one instance per run)."""

    __slots__ = (
        "start", "attempts", "retries", "fallbacks",
        "watchdog_fires", "salvaged", "final_rung", "log",
    )

    def __init__(self, start: float) -> None:
        self.start = start
        self.attempts = 0
        self.retries = 0
        self.fallbacks = 0
        self.watchdog_fires = 0
        self.salvaged = False
        self.final_rung = ""
        self.log: List[str] = []


def supervise(
    graph: CSRGraph,
    config: Optional[ClusteringConfig] = None,
    resilience: Optional[ResiliencePolicy] = None,
    instrumentation: Optional[Instrumentation] = None,
    engine: Optional[str] = None,
    **kwargs,
) -> ClusterResult:
    """One-shot convenience: ``RunSupervisor(**kwargs).run(...)``."""
    supervisor = RunSupervisor(**kwargs)
    return supervisor.run(
        graph,
        config if config is not None else ClusteringConfig(),
        resilience=resilience,
        instrumentation=instrumentation,
        engine=engine,
    )
