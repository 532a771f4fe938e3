"""Self-healing supervised execution for clustering runs (DESIGN.md §10).

The :class:`RunSupervisor` wraps :func:`repro.core.api.cluster` in a
retry/fallback state machine::

    RUNNING --fault--> FAULTED --attempts left--> RETRYING --> RUNNING
       |                  |
       |                  +--rung exhausted--> FALLBACK --> RUNNING
       |                  +--everything exhausted--> DEGRADED (salvage)
       +--success--> DONE

Retries resume from the last good checkpoint (never a cold restart when a
checkpoint exists), deadlines are the caller's own
:class:`~repro.resilience.guards.RunBudget` caps (``max_wall_seconds``
spans the whole supervised run, ``max_level_wall_seconds`` one engine
invocation), and :func:`fallback_rungs` degrades the executor
deterministically (native -> reference kernel, parallel engine ->
sequential sweeps, strict audit -> graceful resync).  Every decision
lands in ``ClusterResult.failure_log`` and as ``repro_supervisor_*``
metrics/trace events riding ``sched.instr``.
"""

from repro.supervisor.policy import Rung, fallback_rungs
from repro.supervisor.supervisor import CheckpointRotation, RunSupervisor

__all__ = [
    "CheckpointRotation",
    "Rung",
    "RunSupervisor",
    "fallback_rungs",
]
