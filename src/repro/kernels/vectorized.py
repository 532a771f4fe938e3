"""Old names kept for the wall-clock perf harness's layer tracer.

``benchmarks/perf/layertrace.py`` wraps ``VectorizedKernel.batch_moves``
and reads ``SMALL_BATCH_WORK`` from this module.  The vectorized kernel
is gone; both names now point at the native kernel, so the tracer's
``kernels.*`` metrics time the kernel every engine runs
(:data:`repro.kernels.native.KERNEL`).  Delete this module once the
tracer names ``repro.kernels.native`` directly.
"""

from repro.kernels.native import NativeKernel

#: The tracer wraps ``batch_moves`` on this class; it is the native
#: kernel's own class, so the wrapper sees every native batch call.
VectorizedKernel = NativeKernel

#: The native kernel has no small-batch dict fallback, so the tracer's
#: ``kernels.fallback_calls`` counts nothing.
SMALL_BATCH_WORK = 0

__all__ = ["SMALL_BATCH_WORK", "VectorizedKernel"]
