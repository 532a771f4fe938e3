"""Move-evaluation kernels: the native C loops and the reference dict
oracle (DESIGN.md §8).

Engines never import concrete kernels; they resolve one by name via
:func:`get_kernel` (the ``ClusteringConfig.kernel`` knob / ``--kernel``
CLI flag).  All kernels are bit-identical in outputs and state
mutations — only wall-clock differs — so the choice never changes
``f_objective`` or ``sim_time_seconds``.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.kernels.base import GAIN_EPS, MoveKernel
from repro.kernels.native import NativeKernel
from repro.kernels.reference import ReferenceKernel

#: Registered kernels by config name.
KERNELS = {
    "native": NativeKernel(),
    "reference": ReferenceKernel(),
}

#: The default kernel (``ClusteringConfig.kernel``'s default).
DEFAULT_KERNEL = "native"

#: Supervisor fallback chain: each kernel's next-simpler substitute.  The
#: reference oracle has nothing below it (absent key = bottom rung).
KERNEL_FALLBACKS = {"native": "reference"}


def fallback_kernel(name: str):
    """The next-simpler kernel to fall back to, or ``None`` at the bottom."""
    return KERNEL_FALLBACKS.get(name)


def get_kernel(name: str) -> MoveKernel:
    """Resolve a kernel by config name; raises ``ConfigError`` if unknown."""
    try:
        return KERNELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
        ) from None


__all__ = [
    "DEFAULT_KERNEL",
    "GAIN_EPS",
    "KERNELS",
    "KERNEL_FALLBACKS",
    "MoveKernel",
    "NativeKernel",
    "ReferenceKernel",
    "fallback_kernel",
    "get_kernel",
]
