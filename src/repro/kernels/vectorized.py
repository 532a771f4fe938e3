"""Old names kept for the wall-clock perf harness's layer tracer.

``benchmarks/perf/layertrace.py`` wraps ``VectorizedKernel.batch_moves``
and reads ``SMALL_BATCH_WORK`` from this module.  The vectorized kernel
is gone; both names now point at the native kernel.  A relaxed or
colored round runs in one C call (``NativeKernel.round``), which the
wrapper does not see, so the tracer's ``kernels.*`` metrics time only
the paths that still call ``batch_moves``: the per-window loop of
``best_moves.window_round`` (fault-injection runs and states the C round
cannot commit into) and the prefix engine.  Delete this module once the tracer names
``repro.kernels.native`` directly.
"""

from repro.kernels.native import NativeKernel

#: The tracer wraps ``batch_moves`` on this class; it is the native
#: kernel's own class, so the wrapper sees every native batch call.
VectorizedKernel = NativeKernel

#: The native kernel has no small-batch dict fallback, so the tracer's
#: ``kernels.fallback_calls`` counts nothing.
SMALL_BATCH_WORK = 0

__all__ = ["SMALL_BATCH_WORK", "VectorizedKernel"]
