"""The one bench harness: timing, tables, baselines, regression compare.

* :func:`time_callable` — warmup + repeat wall timing, honouring
  ``REPRO_BENCH_REPEATS``;
* :class:`ExperimentTable` — the fixed-column text tables the figure
  benches print (the rows/series the paper's figures plot, DESIGN.md §4);
* :class:`BenchSuite` — named rows of ``{metric: value}`` written to
  ``BENCH_<name>.json``;
* :func:`compare` — baseline-vs-current report; metric *direction*
  (lower-better for times/bytes, higher-better for objectives/speedups,
  informational otherwise) comes from :func:`metric_direction` and is
  recorded in the baseline so old files stay comparable.

The suites behind the committed baselines live in
:mod:`repro.bench.suites`; ``python -m repro.bench`` emits and compares
them.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Schema tag of every ``BENCH_*.json`` file.  The string predates this
#: module's location and is kept so the committed baselines stay valid.
BASELINE_SCHEMA = "repro.obs.bench/v1"

#: Default regression tolerance: flag changes worse than 10%.
DEFAULT_TOLERANCE = 0.10


#: Optional context-manager factory installed by benchmarks/conftest.py
#: (pytest's capfd.disabled) so tables bypass pytest's fd-level capture.
_capture_disabler = None


def set_capture_disabler(factory) -> None:
    """Install (or clear, with None) a capture-disabling context factory."""
    global _capture_disabler
    _capture_disabler = factory


def bench_print(text: str) -> None:
    """Print to the *real* stdout, bypassing pytest's capture.

    Benchmark tables must land in ``bench_output.txt`` (the suite is run
    as ``pytest benchmarks/ --benchmark-only | tee ...``), and pytest
    captures prints of passing tests at the file-descriptor level.
    ``benchmarks/conftest.py`` installs capfd's disabler here.
    """
    if _capture_disabler is not None:
        with _capture_disabler():
            print(text, flush=True)
        return
    stream = getattr(sys, "__stdout__", None) or sys.stdout
    stream.write(text + "\n")
    stream.flush()


def bench_scale() -> float:
    """Global workload scale for benches.

    Set ``REPRO_BENCH_SCALE`` (e.g. ``2.0`` for a heavier run, ``0.25``
    for a quick smoke) — the default keeps the full suite laptop-sized.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_repeats(default: int = 3) -> int:
    """Repeat count for timed measurements.

    Benches default to 3 for turnaround and honour ``REPRO_BENCH_REPEATS``.
    """
    return int(os.environ.get("REPRO_BENCH_REPEATS", str(default)))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class ExperimentTable:
    """A fixed-column text table printed into the bench output.

    Example::

        table = ExperimentTable("Figure 4", ["graph", "lambda", "speedup"])
        table.add_row("amazon", 0.01, 12.3)
        table.emit()
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            magnitude = abs(value)
            if magnitude >= 1000 or magnitude < 0.001:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-" * len(header)
        lines = [f"== {self.title} ==", header, rule]
        for row in self.rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def emit(self) -> None:
        """Print the table to the uncaptured stdout (tee'd bench logs)."""
        bench_print("\n" + self.render() + "\n")


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
@dataclass
class TimingStats:
    """Wall-clock samples from :func:`time_callable`."""

    runs: List[float]

    @property
    def best(self) -> float:
        return min(self.runs)

    @property
    def repeats(self) -> int:
        return len(self.runs)


def time_callable(
    fn: Callable[[], object],
    repeats: Optional[int] = None,
    warmup: int = 0,
) -> Tuple[object, TimingStats]:
    """Run ``fn`` ``warmup + repeats`` times; keep per-repeat wall times.

    Returns ``(last_result, stats)`` — the *best* (minimum) time is the
    standard low-noise estimator benches should report.
    """
    reps = repeats if repeats is not None else bench_repeats()
    if reps < 1:
        raise ValueError(f"repeats must be >= 1, got {reps}")
    result = None
    for _ in range(warmup):
        fn()
    runs: List[float] = []
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        runs.append(time.perf_counter() - start)
    return result, TimingStats(runs=runs)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------
_LOWER_SUFFIXES = (
    "_seconds",
    "_time",
    "_bytes",
    "_slowdown",
    "_retries",
    "_overhead",
)
_HIGHER_SUFFIXES = ("objective", "modularity", "speedup", "quality", "f1")


def metric_direction(name: str) -> str:
    """``"lower"`` / ``"higher"`` (better) or ``"info"`` (never compared)."""
    if name.endswith(_LOWER_SUFFIXES) or name in ("slowdown", "sim_time"):
        return "lower"
    if name.endswith(_HIGHER_SUFFIXES):
        return "higher"
    return "info"


@dataclass
class BenchRow:
    """One keyed measurement: comparable metrics plus free-form info."""

    key: str
    metrics: Dict[str, float]
    info: dict = field(default_factory=dict)


class BenchSuite:
    """Collects rows for one bench and writes ``BENCH_<name>.json``."""

    def __init__(self, name: str, meta: Optional[dict] = None) -> None:
        if not name or "/" in name:
            raise ValueError(f"invalid suite name {name!r}")
        self.name = name
        self.meta = dict(meta or {})
        self.rows: List[BenchRow] = []

    def add_row(self, key: str, metrics: Dict[str, float], **info) -> BenchRow:
        if any(r.key == key for r in self.rows):
            raise ValueError(f"duplicate row key {key!r} in suite {self.name}")
        row = BenchRow(
            key=key,
            metrics={k: float(v) for k, v in metrics.items()},
            info=info,
        )
        self.rows.append(row)
        return row

    def payload(self) -> dict:
        meta = dict(self.meta)
        meta.setdefault("python", platform.python_version())
        return {
            "schema": BASELINE_SCHEMA,
            "name": self.name,
            "meta": meta,
            "directions": {
                metric: metric_direction(metric)
                for row in self.rows
                for metric in row.metrics
            },
            "rows": [
                {"key": r.key, "metrics": r.metrics, "info": r.info}
                for r in self.rows
            ],
        }

    def write(self, directory) -> Path:
        """Write ``BENCH_<name>.json`` under ``directory``; returns the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.name}.json"
        with open(path, "w") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def load_baseline(path) -> dict:
    """Load and shape-check one ``BENCH_*.json`` payload."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: unsupported baseline schema {payload.get('schema')!r}"
        )
    for required in ("name", "rows"):
        if required not in payload:
            raise ValueError(f"{path}: baseline missing {required!r}")
    return payload


# ---------------------------------------------------------------------------
# regression compare
# ---------------------------------------------------------------------------
@dataclass
class Regression:
    """One metric that got worse than the tolerance allows."""

    key: str
    metric: str
    baseline: float
    current: float
    change: float  # signed relative change, positive = worse

    def describe(self) -> str:
        return (
            f"{self.key} :: {self.metric}: {self.baseline:g} -> "
            f"{self.current:g} ({self.change:+.1%} worse)"
        )


@dataclass
class CompareReport:
    """Outcome of :func:`compare` (empty ``regressions`` = pass)."""

    suite: str
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        lines = [
            f"compare[{self.suite}]: {self.compared} metrics compared, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        ]
        for regression in self.regressions:
            lines.append(f"  REGRESSION {regression.describe()}")
        for note in self.improvements:
            lines.append(f"  improved   {note}")
        for note in self.skipped:
            lines.append(f"  skipped    {note}")
        return "\n".join(lines)


def relative_worsening(direction: str, baseline: float, current: float) -> float:
    """Signed relative change where positive means *worse*.

    A non-finite current value (NaN, ±inf) is infinitely worse: a run
    that produced no number must never compare clean.
    """
    if not math.isfinite(current):
        return math.inf
    scale = max(abs(baseline), 1e-12)
    delta = (current - baseline) / scale
    return delta if direction == "lower" else -delta


def compare(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CompareReport:
    """Flag every comparable metric that regressed beyond ``tolerance``.

    Only metrics with a lower/higher-better direction participate;
    informational metrics (counts, sizes) never fail a compare.  Rows or
    metrics present in the baseline but missing from the current run are
    reported in ``skipped`` so silent coverage loss is visible.
    """
    report = CompareReport(suite=baseline.get("name", "?"))
    directions = dict(baseline.get("directions") or {})
    current_rows = {row["key"]: row for row in current.get("rows", [])}
    for row in baseline.get("rows", []):
        key = row["key"]
        other = current_rows.get(key)
        if other is None:
            report.skipped.append(f"{key}: row missing from current run")
            continue
        for metric, base_value in row.get("metrics", {}).items():
            direction = directions.get(metric) or metric_direction(metric)
            if direction == "info":
                continue
            if metric not in other.get("metrics", {}):
                report.skipped.append(
                    f"{key} :: {metric}: metric missing from current run"
                )
                continue
            cur_value = float(other["metrics"][metric])
            report.compared += 1
            worsening = relative_worsening(
                direction, float(base_value), cur_value
            )
            if worsening > tolerance:
                report.regressions.append(
                    Regression(
                        key=key,
                        metric=metric,
                        baseline=float(base_value),
                        current=cur_value,
                        change=worsening,
                    )
                )
            elif worsening < -tolerance:
                report.improvements.append(
                    f"{key} :: {metric}: {base_value:g} -> {cur_value:g} "
                    f"({-worsening:+.1%} better)"
                )
    return report


def compare_files(
    baseline_path, current_path, tolerance: float = DEFAULT_TOLERANCE
) -> CompareReport:
    return compare(
        load_baseline(baseline_path), load_baseline(current_path), tolerance
    )
