"""Seeded random-number-generator helpers.

Every stochastic component in the package (generators, asynchronous move
scheduling, pivot baselines) takes either an integer seed or an existing
:class:`numpy.random.Generator`.  These helpers normalize the two and derive
independent child generators so experiments are reproducible end to end.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer, an existing generator (returned unchanged),
    or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def resolve_seed(seed: Optional[int]) -> int:
    """``seed`` itself, or for ``None`` a concrete non-negative 63-bit
    seed drawn from a fresh :class:`numpy.random.SeedSequence` (OS
    entropy), so a run seeded with it can be recorded and replayed."""
    if seed is not None:
        return seed
    state = np.random.SeedSequence().generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Uses the SeedSequence spawning protocol so children are independent of
    each other and of the parent stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = make_rng(seed)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(seed: SeedLike, salt: int) -> int:
    """Derive a deterministic integer seed from ``seed`` and a ``salt``.

    Useful when a component needs a plain integer (e.g. to store in a result
    record) rather than a generator.
    """
    rng = make_rng(seed if not isinstance(seed, np.random.Generator) else seed)
    base = int(rng.integers(0, 2**31 - 1))
    return (base * 1_000_003 + salt) % (2**31 - 1)


def permutation(rng: Optional[np.random.Generator], n: int) -> np.ndarray:
    """Random permutation of ``range(n)``; identity when ``rng`` is None."""
    if rng is None:
        return np.arange(n, dtype=np.int64)
    return rng.permutation(n).astype(np.int64)
