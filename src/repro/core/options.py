"""RunOptions: the consolidated execution-context bundle for ``cluster``.

:func:`repro.core.api.cluster` takes every execution subsystem —
resilience, instrumentation, engine override and supervisor —
through one typed, frozen value, so the public signature stays
``cluster(graph, config, options=)`` no matter how many execution
subsystems grow underneath, and so option bundles can be built once and
reused across runs (the serving gateway and the supervisor both do).
None of these fields changes *what* is computed, only *how* the run
executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """Execution options for one clustering run (DESIGN.md §14).

    Every field defaults to ``None`` — the plain, uninstrumented,
    unsupervised inline run.  None of these fields can change the
    clustering result except ``engine`` (which selects a different
    BEST-MOVES schedule) and a degrading ``resilience`` policy;
    instrumentation is bit-identity-preserving by contract (DESIGN.md §7).

    Attributes
    ----------
    resilience:
        A :class:`~repro.resilience.context.ResiliencePolicy` — fault
        injection, auditing, budgets, checkpoint/resume.
    instrumentation:
        An :class:`~repro.obs.instrument.Instrumentation` — span trace
        plus metrics registry.
    engine:
        BEST-MOVES engine override by registry name (see
        :data:`repro.core.engines.ENGINES`).
    supervisor:
        A :class:`~repro.supervisor.RunSupervisor` — retry-with-resume,
        watchdog deadlines, fallback ladder.
    """

    resilience: Optional[object] = None
    instrumentation: Optional[object] = None
    engine: Optional[str] = None
    supervisor: Optional[object] = None
