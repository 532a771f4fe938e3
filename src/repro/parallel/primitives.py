"""The logarithmic depth term every simulated parallel primitive shares.

Each primitive executes vectorized (or in C) and charges the theoretical
(work, depth) of its parallel counterpart to the scheduler, matching the
ParlayLib/GBBS primitives the paper builds on (Appendix B);
:func:`log2_depth` is their O(log n) depth.
"""

from __future__ import annotations

import math


def log2_depth(n: int) -> float:
    """Depth helper: log2 clamped to at least 1 for tiny inputs."""
    return max(1.0, math.log2(max(n, 2)))
