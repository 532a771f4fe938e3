"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """Raised when graph input data is malformed (bad edges, shapes, weights)."""


class ConfigError(ReproError):
    """Raised when a clustering configuration is invalid or inconsistent."""


class SchedulerError(ReproError):
    """Raised on misuse of the simulated parallel scheduler."""


class CircuitError(ReproError):
    """Raised when a monotone circuit definition is malformed."""


class InvariantViolation(ReproError):
    """Raised when a :class:`~repro.resilience.audit.StateAuditor` finds a
    clustering state whose maintained aggregates diverge from its
    assignments (the concurrency hazards of Section 3.2.1)."""


class TransientFault(ReproError):
    """An injected transient failure (fault-injection only).

    Engines retry a bounded number of times with exponential backoff on
    this error before degrading the run.
    """


class BudgetExhausted(ReproError):
    """Raised when a :class:`~repro.resilience.guards.RunBudget` limit is
    hit under ``strict`` resilience policy (non-strict runs degrade
    gracefully instead of raising)."""


class WatchdogTimeout(BudgetExhausted):
    """Raised when the per-level wall cap
    (``RunBudget.max_level_wall_seconds``) fires under ``strict``
    resilience policy; graceful runs degrade and return best-so-far
    instead of raising."""


class SupervisorExhausted(ReproError):
    """Raised when the :class:`~repro.supervisor.RunSupervisor` exhausts
    every retry and fallback rung without obtaining any clustering result
    (the salvage run itself failed)."""


class CheckpointError(ReproError):
    """Raised when a checkpoint file is missing, corrupt, or was written
    by an incompatible configuration."""


class UpdateError(ReproError):
    """Raised when a dynamic edge update cannot be applied: unknown
    operation, self-loop update, deleting or reweighting an edge that does
    not exist, or a malformed update-log line."""


class ServerClosedError(ReproError):
    """Raised when an op is invoked on a
    :class:`~repro.serving.gateway.ServingGateway` after ``close()``.
    Closing is idempotent — double-close and re-``__exit__`` are no-ops —
    but serve/stage/commit/save/audit on a closed gateway raise this
    instead of surfacing an obscure failure from the released
    clusterer."""


class SnapshotError(CheckpointError):
    """Raised when a dynamic-clusterer snapshot is missing, corrupt, or
    incompatible with the restoring configuration.  Subclasses
    :class:`CheckpointError` so supervisor-style fall-back-to-elder-slot
    handling applies unchanged."""
