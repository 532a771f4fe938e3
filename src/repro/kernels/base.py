"""Kernel-layer contract: how engines evaluate best moves.

A *move kernel* answers one question — "where does this vertex (or this
whole batch of vertices) want to go, against the current state snapshot?"
— at three granularities:

* :meth:`MoveKernel.batch_moves` — a whole batch/frontier against one
  snapshot (the synchronous step and the asynchronous concurrency
  window);
* :meth:`MoveKernel.single_move` — one vertex (the sequential and
  event-driven engines' granularity);
* :meth:`MoveKernel.sweep` — a full sequential sweep with immediate
  moves (Algorithm 2's inner loop), whose per-vertex decisions and
  state mutations are bit-identical to the vertex-at-a-time loop.

Kernels are pure evaluation: they never touch the simulated cost ledger.
Charging (``degree_profile`` / ``_charge_batch`` in
:mod:`repro.core.moves`) happens in the engine-facing wrappers and is
invoked identically for every kernel, which is what keeps
``sim_time_seconds`` bit-for-bit comparable across kernels (DESIGN.md
§8).

Both registered kernels (``native`` and ``reference``) are required to
be *bit-identical* in their outputs — targets, gains, and (for sweeps)
the exact sequence of state mutations — so the reference dict kernel
serves as the oracle the native one is property-tested against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Minimum strict improvement for a move (guards float-noise oscillation).
#: Defined here (not in ``repro.core.moves``) so kernels can use it without
#: importing the charging layer; the native kernel receives it per call.
GAIN_EPS = 1e-10


class MoveKernel:
    """Abstract move-evaluation kernel (see module docstring).

    ``gains`` are always *relative*: the objective improvement of taking
    the returned move versus staying put (0.0 when the vertex stays).
    """

    name: str = "abstract"

    def batch_moves(
        self,
        graph,
        state,
        batch: np.ndarray,
        resolution: float,
        *,
        allow_escape: bool = True,
        swap_avoidance: bool = False,
        instr=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, gains)`` for ``batch`` against the state snapshot."""
        raise NotImplementedError

    def single_move(
        self,
        graph,
        state,
        v: int,
        resolution: float,
        *,
        allow_escape: bool = True,
        swap_avoidance: bool = False,
    ) -> Tuple[int, float]:
        """``(target, gain)`` for one vertex against the current state."""
        raise NotImplementedError

    def sweep(
        self,
        graph,
        state,
        order: np.ndarray,
        resolution: float,
        *,
        allow_escape: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """One sequential sweep of immediate best moves over ``order``.

        Mutates ``state`` exactly as the vertex-at-a-time loop would
        (same ``move_one`` calls in the same order) and returns
        ``(movers, origins, targets, total_gain)``.
        """
        raise NotImplementedError
