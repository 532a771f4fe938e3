"""Metrics registry: counters, gauges, and histograms with a JSONL exporter.

The registry is deliberately small and dependency-free.  Metrics are
created lazily (``registry.counter(name)`` returns the existing counter or
makes one) and support labels passed as keyword arguments:
``counter.inc(5, engine="relaxed")`` keeps one value per distinct label
set.

:meth:`MetricsRegistry.to_jsonl` writes one JSON object per sample line,
and :meth:`MetricsRegistry.parse_jsonl` reads them back (benches, the run
doctor and tests assert on these).

The clustering pipeline's standard metric names live in
:mod:`repro.obs.instrument` and are documented in DESIGN.md §7.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: a 1-2.5-5 ladder over eight decades, wide
#: enough for move counts, frontier sizes, gains, and second-scale timings.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-3, 8) for m in (1.0, 2.5, 5.0)
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Common bookkeeping for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name

    def samples(self) -> List[dict]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {value})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._values.values())

    def samples(self) -> List[dict]:
        return [
            {
                "metric": self.name,
                "type": self.kind,
                "labels": dict(key),
                "value": value,
            }
            for key, value in sorted(self._values.items())
        ]


class Gauge(Metric):
    """Last-write-wins value (per label set)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels) -> Optional[float]:
        return self._values.get(_label_key(labels))

    def samples(self) -> List[dict]:
        return [
            {
                "metric": self.name,
                "type": self.kind,
                "labels": dict(key),
                "value": value,
            }
            for key, value in sorted(self._values.items())
        ]


class _HistogramSeries:
    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, num_buckets: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bucket_counts = [0] * num_buckets


class Histogram(Metric):
    """Distribution sketch: cumulative buckets plus count/sum/min/max."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name)
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[i] += 1
                break
        # Values above the top bound only land in the implicit +Inf bucket.

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Bucket-interpolated quantile estimate (``None`` when empty).

        Documented exact values: an empty series returns ``None``;
        ``q=0`` returns the observed ``min``; ``q=1`` returns the
        observed ``max`` — regardless of which buckets the mass landed
        in (including everything in the implicit ``+Inf`` bucket).  In
        between, walks the non-cumulative bucket counts to the bucket
        containing the ``q``-th rank and interpolates linearly within
        it, with the bucket edges clamped to the observed ``[min, max]``
        — so a single-value series returns that value exactly and
        estimates never leave the observed range.  Rank mass past the
        top finite bound (the implicit ``+Inf`` bucket) resolves to
        ``max``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return None
        return _interpolated_quantile(
            self.buckets,
            series.bucket_counts,
            series.count,
            series.min,
            series.max,
            q,
        )

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def total_count(self) -> int:
        return sum(s.count for s in self._series.values())

    def total_sum(self) -> float:
        return sum(s.sum for s in self._series.values())

    def samples(self) -> List[dict]:
        out = []
        for key, series in sorted(self._series.items()):
            cumulative = 0
            bucket_map = {}
            for bound, n in zip(self.buckets, series.bucket_counts):
                cumulative += n
                bucket_map[f"{bound:g}"] = cumulative
            out.append(
                {
                    "metric": self.name,
                    "type": self.kind,
                    "labels": dict(key),
                    "count": series.count,
                    "sum": series.sum,
                    "min": series.min if series.count else None,
                    "max": series.max if series.count else None,
                    "buckets": bucket_map,
                }
            )
        return out


def _interpolated_quantile(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    vmin: float,
    vmax: float,
    q: float,
) -> float:
    """Shared quantile walk over non-cumulative bucket counts.

    ``q=0`` / ``q=1`` short-circuit to the exact observed extremes so
    edge quantiles never depend on bucket placement.
    """
    if q <= 0.0:
        return vmin
    if q >= 1.0:
        return vmax
    rank = q * count
    cumulative = 0.0
    prev_bound: Optional[float] = None
    for bound, n in zip(bounds, bucket_counts):
        if n:
            lo = vmin if prev_bound is None else max(prev_bound, vmin)
            hi = max(min(bound, vmax), lo)
            if cumulative + n >= rank:
                frac = max(0.0, min(1.0, (rank - cumulative) / n))
                return lo + frac * (hi - lo)
            cumulative += n
        prev_bound = bound
    return vmax  # remaining mass sits in the +Inf bucket


def sample_quantile(sample: dict, q: float) -> Optional[float]:
    """Quantile estimate from one exported histogram *sample* dict.

    Accepts the shape :meth:`Histogram.samples` emits (and
    :meth:`MetricsRegistry.parse_jsonl` reads back): cumulative
    ``buckets`` mapping plus ``count``/``min``/``max``.  Same semantics
    as :meth:`Histogram.quantile`, so offline consumers (the run
    doctor) agree with the in-process registry.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = int(sample.get("count") or 0)
    if count == 0:
        return None
    bounds: List[float] = []
    bucket_counts: List[int] = []
    previous = 0
    for bound_text, cumulative in sample.get("buckets", {}).items():
        bounds.append(float(bound_text))
        bucket_counts.append(int(cumulative) - previous)
        previous = int(cumulative)
    vmin = float(sample["min"])
    vmax = float(sample["max"])
    return _interpolated_quantile(bounds, bucket_counts, count, vmin, vmax, q)


class MetricsRegistry:
    """Creates, holds, and exports a run's metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(Gauge, name)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def collect(self) -> List[dict]:
        """All samples across all metrics, registry-name ordered."""
        out: List[dict] = []
        for name in self.names():
            out.extend(self._metrics[name].samples())
        return out

    # ------------------------------------------------------------------
    # JSONL exporter
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(json.dumps(sample) + "\n" for sample in self.collect())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    @staticmethod
    def parse_jsonl(text: str) -> List[dict]:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
