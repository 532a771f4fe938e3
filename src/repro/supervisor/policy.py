"""The fallback ladder: a pure function of the configuration.

The ladder order depends only on the config and the requested engine,
which is what makes chaos runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.engines import fallback_engine
from repro.kernels import fallback_kernel


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


def fallback_rungs(config, engine: Optional[str] = None) -> List[Rung]:
    """The progressively more conservative rungs for a run of ``config``.

    The ladder (cumulative — each rung keeps the substitutions of the
    rungs above it) is::

        as-configured -> reference-kernel -> sequential-engine -> graceful

    with the kernel/engine rungs skipped when the run already sits at the
    bottom of that axis (reference kernel, sequential engine).
    """
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
    return rungs
