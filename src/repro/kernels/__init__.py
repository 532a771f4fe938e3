"""Move evaluation: the native C loops and the reference dict loops
(DESIGN.md §8).

:data:`repro.kernels.native.KERNEL` evaluates every BEST-MOVES window
and sequential sweep.  Where ``native.c`` cannot be built it runs the
loops of :mod:`repro.kernels.reference`, which are bit-identical in
outputs and state mutations (only wall-clock differs) and serve as the
test oracle.  Cost charging never sees which loop ran, so neither
``f_objective`` nor ``sim_time_seconds`` depends on it.
"""
