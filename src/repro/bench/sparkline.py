"""ASCII sparklines for bench output.

Figures in this reproduction are printed, not plotted; a sparkline next
to a series makes the *shape* — near-linear scaling, the SMT knee, a
precision/recall trade-off — visible at a glance inside
``bench_output.txt``.
"""

from __future__ import annotations

from typing import Sequence

#: Eight-level block characters, lowest to highest.
_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line block-character sparkline of ``values``.

    Constant series render as mid-level blocks; empty input gives "".
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return _BLOCKS[3] * len(vals)
    span = hi - lo
    out = []
    for v in vals:
        index = int((v - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[index])
    return "".join(out)

