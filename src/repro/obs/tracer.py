"""Structured tracing: nested spans and point events, zero dependencies.

A :class:`Tracer` records a tree of *spans* — named intervals with wall
and CPU time plus a peak-RSS sample — and *events* — timestamped points
attached to the innermost open span.  The clustering pipeline emits the
taxonomy ``run → level → phase → round`` (DESIGN.md §7): one ``run`` span
per :func:`repro.core.api.cluster` call, one ``level`` span per coarsening
level, ``phase`` spans for best-moves / compress / flatten / refine, and
one ``round`` span per BEST-MOVES iteration.

Spans are written to JSONL (one JSON object per line) in *completion*
order, so children precede their parents in the file; consumers rebuild
the tree with :func:`span_tree` or validate it with
:mod:`repro.obs.schema`.  Everything is stdlib-only: ``time`` for clocks
and ``resource`` (when available) for peak RSS.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional

try:  # pragma: no cover - platform-dependent
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: Trace format version stamped into every record.
TRACE_VERSION = 1


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process in bytes (None if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def _json_default(value):
    """Coerce numpy scalars and other oddballs for json.dumps."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


class _NullSpan:
    """No-op span handle returned by disabled instrumentation."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


#: Shared no-op span: entering, exiting, and ``set`` all do nothing.
NULL_SPAN = _NullSpan()


class Span:
    """One open (then finished) interval in the trace."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "attrs",
        "start",
        "wall_seconds",
        "cpu_seconds",
        "peak_rss_bytes",
        "_tracer",
        "_start_cpu",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attrs = attrs
        self.start = tracer.now()
        self._start_cpu = time.process_time()
        self.wall_seconds: Optional[float] = None
        self.cpu_seconds: Optional[float] = None
        self.peak_rss_bytes: Optional[int] = None

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    def record(self) -> dict:
        return {
            "type": "span",
            "v": TRACE_VERSION,
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "peak_rss_bytes": self.peak_rss_bytes,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans and events for one run (see module docstring)."""

    def __init__(self, sample_rss: bool = True) -> None:
        self.sample_rss = sample_rss
        self._epoch = time.perf_counter()
        self._next_id = 0
        self._stack: List[Span] = []
        #: Finished-span and event records, in completion/occurrence order.
        self.records: List[dict] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    @property
    def current_span_id(self) -> Optional[int]:
        return self._stack[-1].span_id if self._stack else None

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span; use as a context manager."""
        span = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=self.current_span_id,
            depth=len(self._stack),
            attrs=attrs,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(open: {[s.name for s in self._stack]})"
            )
        self._stack.pop()
        span.wall_seconds = self.now() - span.start
        span.cpu_seconds = time.process_time() - span._start_cpu
        if self.sample_rss:
            span.peak_rss_bytes = peak_rss_bytes()
        self.records.append(span.record())

    def event(self, name: str, **attrs) -> dict:
        """Record a point event attached to the innermost open span."""
        record = {
            "type": "event",
            "v": TRACE_VERSION,
            "name": name,
            "id": self._next_id,
            "span": self.current_span_id,
            "t": self.now(),
            "attrs": attrs,
        }
        self._next_id += 1
        self.records.append(record)
        return record

    def worker_chunk(
        self,
        worker: int,
        start: float,
        end: float,
        label: str,
        items: int = 0,
        wait: float = 0.0,
    ) -> dict:
        """Record one worker's chunk on its timeline lane.

        Unlike spans, chunk intervals are on the *simulated* clock (the
        scheduler's cost model), one lane per worker; ``wait`` is the idle
        gap the worker sat through since its previous chunk ended (barrier
        joins, straggler waits).  Chunks attach to the innermost open span
        so consumers can group lanes under the phase/round tree.
        """
        record = {
            "type": "worker",
            "v": TRACE_VERSION,
            "id": self._next_id,
            "span": self.current_span_id,
            "worker": int(worker),
            "start": float(start),
            "end": float(end),
            "label": label,
            "items": int(items),
            "wait": float(wait),
        }
        self._next_id += 1
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # export / import
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All finished records as JSONL (one object per line)."""
        if self._stack:
            raise RuntimeError(
                f"cannot export with open spans: {[s.name for s in self._stack]}"
            )
        return "".join(
            json.dumps(r, default=_json_default) + "\n" for r in self.records
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    @staticmethod
    def parse_jsonl(text: str) -> List[dict]:
        """Parse JSONL trace text back into record dicts."""
        return [json.loads(line) for line in text.splitlines() if line.strip()]

    def span_records(self) -> List[dict]:
        return [r for r in self.records if r["type"] == "span"]

    def event_records(self) -> List[dict]:
        return [r for r in self.records if r["type"] == "event"]

    def worker_records(self) -> List[dict]:
        return [r for r in self.records if r["type"] == "worker"]


class SpanNode:
    """One node of a rebuilt span tree."""

    __slots__ = ("record", "children")

    def __init__(self, record: dict) -> None:
        self.record = record
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.record["name"]

    def walk(self):
        """Yield this node and all descendants, depth-first."""
        yield self
        for child in self.children:
            for node in child.walk():
                yield node


def span_tree(records: List[dict]) -> List[SpanNode]:
    """Rebuild the span forest from trace records (any record order).

    Children are ordered by start time.  Event records are ignored.
    """
    nodes: Dict[int, SpanNode] = {
        r["id"]: SpanNode(r) for r in records if r["type"] == "span"
    }
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = node.record["parent"]
        if parent is None:
            roots.append(node)
        elif parent in nodes:
            nodes[parent].children.append(node)
        else:
            raise ValueError(
                f"span {node.record['id']} references missing parent {parent}"
            )
    for node in nodes.values():
        node.children.sort(key=lambda c: c.record["start"])
    roots.sort(key=lambda c: c.record["start"])
    return roots
