"""The run supervisor: retries, deadlines, fallback ladder, salvage.

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
* the caller's ``RunBudget.max_wall_seconds`` caps the whole supervised
  run: every attempt gets whatever time is left of it;
* the final ``graceful`` rung hands control back to the resilience
  layer's own absorb-and-degrade machinery;
* if even that fails, or a caller budget runs out under a graceful
  policy, a salvage run (graceful, one-round budget) flattens the
  best-so-far clustering from the newest checkpoint and returns it
  explicitly marked ``degraded``.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.core.result import ClusterResult
from repro.errors import (
    BudgetExhausted,
    CheckpointError,
    ConfigError,
    InvariantViolation,
    ReproError,
    SupervisorExhausted,
    TransientFault,
    WatchdogTimeout,
)
from repro.graphs.csr import CSRGraph
from repro.obs.instrument import (
    M_SUPERVISOR_ATTEMPTS,
    M_SUPERVISOR_FALLBACKS,
    M_SUPERVISOR_RETRIES,
    M_SUPERVISOR_WATCHDOG,
    NULL_INSTRUMENTATION,
    Instrumentation,
)
from repro.resilience.checkpoint import SlotPair
from repro.resilience.context import ResiliencePolicy
from repro.resilience.guards import RunBudget
from repro.supervisor.policy import Rung, fallback_rungs

#: Failures worth re-running from a checkpoint: injected transients and
#: state corruption (recovery-by-rerun is cheap when levels are
#: idempotent from a checkpoint).  Everything else either ends the run
#: (budgets) or is a programming error the supervisor must not mask.
_RETRYABLE = (TransientFault, InvariantViolation)

#: Default cap on checkpoint I/O as a fraction of run wall time (see
#: ``ResiliencePolicy.checkpoint_budget_fraction``).  This is what keeps
#: the supervisor's no-fault overhead under the <3% budget: short runs
#: never amortize a write so they skip checkpointing entirely, long runs
#: spend at most ~2% of wall on it.
DEFAULT_CHECKPOINT_FRACTION = 0.02

#: Wall cap handed to a salvage run once the whole-run cap is spent
#: (``RunBudget`` caps must be positive): the guard then stops after the
#: first engine invocation, just like the salvage's one-round cap.
_SPENT_WALL = 1e-9


def _reason(exc: Exception) -> str:
    """Metric/log label of a retryable failure."""
    if isinstance(exc, TransientFault):
        return "transient-fault"
    return "invariant-violation"


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


class _Salvage(Exception):
    """Internal: stop attempting and salvage best-so-far."""


class RunSupervisor:
    """Supervised execution of clustering jobs (see module docstring).

    ``max_attempts`` bounds the attempts per ladder rung.  Deadlines are
    the caller's own :class:`~repro.resilience.guards.RunBudget` caps:
    ``max_wall_seconds`` spans the whole supervised run (measured on
    ``clock``, injectable for tests), ``max_level_wall_seconds`` one
    engine invocation.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        checkpoint_dir: Optional[str] = None,
        checkpoint_fraction: float = DEFAULT_CHECKPOINT_FRACTION,
        clock=time.perf_counter,
    ) -> None:
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.checkpoint_dir = checkpoint_dir
        #: Checkpoint I/O throttle applied to every attempt (0 = write at
        #: every level boundary; tests use 0 to force eager checkpoints).
        self.checkpoint_fraction = checkpoint_fraction
        self._clock = clock

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
        rungs = fallback_rungs(config, engine=engine)
        state = _RunState(start=self._clock())
        directory = (
            nullcontext(self.checkpoint_dir)
            if self.checkpoint_dir is not None
            else tempfile.TemporaryDirectory(prefix="repro-supervisor-")
        )
        with instr.span(
            "supervise",
            rungs=",".join(r.name for r in rungs),
            max_attempts=self.max_attempts,
        ) as span, directory as path:
            rotation = CheckpointRotation(path)
            try:
                result = self._try_rungs(
                    graph, config, base, engine, rungs, rotation, instr, state
                )
            except _Salvage:
                result = self._salvage(
                    graph, config, base, engine, rotation, instr, state
                )
            result = self._finalize(result, state)
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
    def _try_rungs(
        self, graph, config, base, engine, rungs, rotation, instr, state
    ) -> ClusterResult:
        from repro.core.api import cluster  # deferred: api imports us lazily too

        resume = Path(base.resume_from) if base.resume_from else None
        last_error: Exception = SupervisorExhausted("no attempt ran")
        for rung_index, rung in enumerate(rungs):
            if rung_index > 0:
                state.fallbacks += 1
                instr.count(M_SUPERVISOR_FALLBACKS, 1.0, rung=rung.name)
                self._note(
                    state, instr,
                    f"falling back to rung {rung.name!r} after {last_error}",
                    kind="fallback", rung=rung.name,
                )
            for attempt in range(1, self.max_attempts + 1):
                wall_left = self._wall_left(base, state)
                if wall_left is not None and wall_left <= 0:
                    self._stop(
                        base, state, instr, deadline=True,
                        cause=BudgetExhausted(
                            "wall-clock budget exhausted before attempt "
                            f"{state.attempts + 1}"
                        ),
                    )
                slot = rotation.begin_attempt()
                run_engine, policy = self._rung_setup(
                    rung, base, engine, resume, slot, wall_left
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
                        graph, config,
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
                    wall_left = self._wall_left(base, state)
                    self._stop(
                        base, state, instr, cause=exc,
                        deadline=wall_left is not None and wall_left <= 0,
                    )
                except _RETRYABLE as exc:
                    resume = self._resume_after(rotation, resume)
                    last_error = exc
                    if attempt == self.max_attempts:
                        break
                    state.retries += 1
                    instr.count(M_SUPERVISOR_RETRIES, 1.0, reason=_reason(exc))
                    self._note(
                        state, instr,
                        f"rung {rung.name!r} attempt {attempt}/"
                        f"{self.max_attempts} failed "
                        f"({_reason(exc)}: {exc}); "
                        + (f"resuming from {resume}" if resume
                           else "restarting cold"),
                        kind="retry",
                    )
                else:
                    self._resume_after(rotation, resume)
                    if state.attempts > 1 or rung_index > 0:
                        self._note(
                            state, instr,
                            f"recovered on rung {rung.name!r} "
                            f"(attempt {state.attempts} overall)",
                            kind="recovered",
                        )
                    return result
        self._note(
            state, instr,
            f"all {len(rungs)} rungs exhausted ({last_error}); salvaging",
            kind="ladder-exhausted",
        )
        raise _Salvage()

    def _stop(self, base, state, instr, cause, deadline: bool) -> None:
        """A caller budget ran out: strict callers get the error, graceful
        callers a salvage of best-so-far.  ``deadline`` marks the whole-run
        wall cap (counted as a run-scope watchdog fire)."""
        if deadline:
            state.watchdog_fires += 1
            instr.count(M_SUPERVISOR_WATCHDOG, 1.0, scope="run")
        if base.strict:
            raise cause
        if deadline:
            self._note(
                state, instr,
                f"watchdog: run deadline "
                f"({base.budget.max_wall_seconds:g}s) exceeded; salvaging",
                kind="watchdog",
            )
        else:
            self._note(
                state, instr,
                f"caller budget exhausted ({cause}); salvaging best-so-far",
                kind="budget",
            )
        raise _Salvage() from cause

    # ------------------------------------------------------------------
    # per-attempt assembly
    # ------------------------------------------------------------------
    def _wall_left(self, base, state) -> Optional[float]:
        """Seconds left of the caller's whole-run wall cap (None: no cap)."""
        if base.budget is None or base.budget.max_wall_seconds is None:
            return None
        return base.budget.max_wall_seconds - (self._clock() - state.start)

    def _rung_setup(self, rung: Rung, base, engine, resume, slot, wall_left):
        run_engine = rung.engine if rung.engine is not None else engine
        budget = base.budget
        if wall_left is not None:
            budget = replace(budget, max_wall_seconds=wall_left)
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
        return run_engine, policy

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
        budget = replace(base.budget or RunBudget(), max_rounds=1)
        wall_left = self._wall_left(base, state)
        if wall_left is not None:
            budget = replace(budget, max_wall_seconds=max(wall_left, _SPENT_WALL))
        policy = replace(
            base,
            budget=budget,
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
