"""Move evaluation: the native C loops and the reference dict loops
(DESIGN.md §8).

:data:`repro.kernels.native.KERNEL` evaluates every BEST-MOVES window
and sequential sweep; ``native.c`` must build (Linux with gcc).  The
loops of :mod:`repro.kernels.reference` are bit-identical in outputs and
state mutations: they are the specification and the test oracle, and
the sweep runs them for states C cannot commit into.  Cost charging
never sees which loop ran, so neither ``f_objective`` nor
``sim_time_seconds`` depends on it.
"""
