"""The fallback ladder: a pure function of the configuration.

The ladder order depends only on the config and the requested engine,
which is what makes chaos runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.engines import fallback_engine


@dataclass(frozen=True)
class Rung:
    """One step of the fallback ladder: executor override + strictness.

    ``engine`` of ``None`` means "keep what the caller asked for";
    ``graceful=True`` runs the rung under non-strict
    resilience so audits resync instead of raising and budget stops
    flatten best-so-far.
    """

    name: str
    engine: Optional[str] = None
    graceful: bool = False


def fallback_rungs(config, engine: Optional[str] = None) -> List[Rung]:
    """The progressively more conservative rungs for a run of ``config``.

    The ladder (cumulative — each rung keeps the substitutions of the
    rungs above it) is::

        as-configured -> sequential-engine -> graceful

    with the engine rung skipped when the run already uses the
    sequential engine.
    """
    rungs = [Rung("as-configured")]
    requested = engine
    if requested is None and not config.parallel:
        requested = "sequential"
    fe = fallback_engine(requested)
    if fe is not None:
        rungs.append(Rung(f"{fe}-engine", engine=fe))
    rungs.append(Rung("graceful", engine=fe, graceful=True))
    return rungs
