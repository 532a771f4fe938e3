"""Execution backends: who runs the parallel phases (DESIGN.md §13).

The simulated scheduler (:mod:`repro.parallel.scheduler`) decides what the
parallel phases *cost*; the execution backend decides what actually
*executes* them.  The two are orthogonal: every backend produces
bit-identical results and the cost model is charged identically, so
``sim_time_seconds`` never depends on the executor.

Two backend names are registered:

* ``simulated`` — the default: every phase runs inline in the parent;
  there is no backend object (``sched.backend is None``);
* ``process``   — a :class:`~repro.parallel.backend.process.ProcessBackend`
  worker pool over shared memory that shards BEST-MOVES batch windows
  and sparse frontier gathers over real cores.

``create_backend`` resolves a name to a live pool, or ``None`` for inline
execution.  An unavailable process backend (no ``/dev/shm``, restricted
start methods, pool start failure) degrades to inline with a single
``RuntimeWarning`` instead of raising — selection is a performance
choice, never a correctness one.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.errors import ConfigError

__all__ = ["BACKEND_NAMES", "create_backend", "resolve_workers"]

#: Registered backend names, importable without pulling in multiprocessing.
BACKEND_NAMES = ("simulated", "process")


def resolve_workers(requested: Optional[int], machine=None) -> int:
    """Resolve a worker count request to a concrete pool size.

    ``requested`` of ``None`` or ``0`` means *auto*: use ``os.cpu_count()``
    capped by the machine profile's ``max_workers`` (a pool wider than the
    modeled machine would make the wall clock disagree with the cost model
    in the wrong direction).  Explicit positive requests are honoured
    as-is — oversubscription is the caller's informed choice.
    """
    if requested is not None and requested > 0:
        return int(requested)
    auto = os.cpu_count() or 1
    if machine is not None:
        auto = min(auto, machine.max_workers)
    return max(1, int(auto))


def create_backend(name: str, workers: int = 0, machine=None, **process_options):
    """A live :class:`ProcessBackend` for ``"process"``, else ``None``.

    ``None`` means inline execution: the ``simulated`` backend, or a
    process pool that could not start (one ``RuntimeWarning``).
    ``workers`` follows :func:`resolve_workers` semantics.  Extra keyword
    options are forwarded to the pool (e.g. ``start_method``,
    ``min_dispatch``, ``chaos_kill_after``).
    """
    if name not in BACKEND_NAMES:
        raise ConfigError(
            f"backend must be one of {list(BACKEND_NAMES)}, got {name!r}"
        )
    if name != "process":
        return None
    from repro.parallel.backend.process import BackendUnavailable, ProcessBackend

    try:
        return ProcessBackend(workers=workers, machine=machine, **process_options)
    except BackendUnavailable as exc:
        warnings.warn(
            f"process backend unavailable, using simulated: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
