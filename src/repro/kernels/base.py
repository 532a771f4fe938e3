"""The constant the native kernel and the reference loops share."""

#: Minimum strict improvement for a move (guards float-noise oscillation).
#: Defined here (not in ``repro.core.moves``) so the kernels can use it
#: without importing the charging layer; the native kernel receives it
#: per call.
GAIN_EPS = 1e-10
