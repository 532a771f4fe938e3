"""Supervision policies: retry schedule, watchdog deadlines, fallback ladder.

All three are plain frozen dataclasses so a supervised run is fully
described by values — the retry schedule is jitter-free and the ladder
order is a pure function of the configuration, which is what makes chaos
runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.engines import fallback_engine
from repro.errors import ConfigError
from repro.kernels import fallback_kernel
from repro.resilience.guards import RunBudget


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry schedule for one ladder rung.

    Backoff is exponential and jitter-free: retry ``i`` (1-based) sleeps
    ``min(backoff_cap, backoff_base * backoff_factor**(i-1))`` wall
    seconds.  Determinism matters more than thundering-herd avoidance
    here — one supervisor drives one run, and reproducible schedules make
    chaos matrices replayable.
    """

    #: Attempts per ladder rung before descending (>= 1).
    max_attempts_per_rung: int = 3
    #: Wall seconds slept before the first retry.
    backoff_base: float = 0.05
    #: Multiplier applied per subsequent retry.
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff sleep.
    backoff_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts_per_rung < 1:
            raise ConfigError(
                f"max_attempts_per_rung must be >= 1, got {self.max_attempts_per_rung}"
            )
        if self.backoff_base < 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_cap < 0:
            raise ConfigError(f"backoff_cap must be >= 0, got {self.backoff_cap}")

    def delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (1-based), in wall seconds."""
        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index}")
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (retry_index - 1),
        )


@dataclass(frozen=True)
class Watchdog:
    """Wall-clock deadlines enforced through the RunBudget guard hooks.

    ``run_deadline_seconds`` caps the whole supervised run (all attempts
    and rungs combined); ``level_deadline_seconds`` caps a single engine
    invocation (one level's best-moves or refine pass).  Both are
    cooperative: they fire at the next budget consultation point, mapped
    onto ``RunBudget.max_wall_seconds`` / ``max_level_wall_seconds``.
    """

    run_deadline_seconds: Optional[float] = None
    level_deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("run_deadline_seconds", "level_deadline_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")

    @property
    def enabled(self) -> bool:
        return (
            self.run_deadline_seconds is not None
            or self.level_deadline_seconds is not None
        )

    def expired(self, elapsed: float) -> bool:
        """Whether the whole-run deadline has already passed."""
        return (
            self.run_deadline_seconds is not None
            and elapsed >= self.run_deadline_seconds
        )

    def budget(self, elapsed: float) -> Optional[RunBudget]:
        """The deadline overlay for an attempt starting at ``elapsed``.

        The run deadline becomes a per-attempt wall budget of whatever
        time remains (so a single attempt cannot overshoot it), the level
        deadline maps straight onto ``max_level_wall_seconds``.
        """
        caps = {}
        if self.run_deadline_seconds is not None:
            remaining = self.run_deadline_seconds - elapsed
            caps["max_wall_seconds"] = max(remaining, 1e-9)
        if self.level_deadline_seconds is not None:
            caps["max_level_wall_seconds"] = self.level_deadline_seconds
        return RunBudget(**caps) if caps else None


@dataclass(frozen=True)
class Rung:
    """One step of the fallback ladder: executor overrides + strictness.

    ``kernel``/``engine`` of ``None`` mean "keep what the
    caller asked for"; ``graceful=True`` runs the rung under non-strict
    resilience so audits resync instead of raising and budget stops
    flatten best-so-far.
    """

    name: str
    kernel: Optional[str] = None
    engine: Optional[str] = None
    graceful: bool = False


class FallbackLadder:
    """Deterministic sequence of progressively more conservative rungs.

    The default ladder (cumulative — each rung keeps the substitutions of
    the rungs above it) is::

        as-configured -> reference-kernel -> sequential-engine -> graceful

    with the kernel/engine rungs skipped when the run already sits at the
    bottom of that axis (reference kernel, sequential engine).  The ladder
    is the same for every execution backend: the process backend degrades
    *itself* to inline execution on any pool fault (DESIGN.md §13).
    """

    def __init__(self, rungs: Sequence[Rung]) -> None:
        if not rungs:
            raise ConfigError("a FallbackLadder needs at least one rung")
        self.rungs: List[Rung] = list(rungs)

    def __len__(self) -> int:
        return len(self.rungs)

    def names(self) -> List[str]:
        return [rung.name for rung in self.rungs]

    @classmethod
    def for_run(cls, config, engine: Optional[str] = None) -> "FallbackLadder":
        """The default ladder for a run of ``config`` under ``engine``."""
        rungs = [Rung("as-configured")]
        fk = fallback_kernel(config.kernel)
        if fk is not None:
            rungs.append(Rung(f"{fk}-kernel", kernel=fk))
        requested = engine
        if requested is None and not config.parallel:
            requested = "sequential"
        fe = fallback_engine(requested)
        if fe is not None:
            rungs.append(Rung(f"{fe}-engine", kernel=fk, engine=fe))
        rungs.append(Rung("graceful", kernel=fk, engine=fe, graceful=True))
        return cls(rungs)
