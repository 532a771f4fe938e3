"""Chrome-trace-event export: load a run's trace in Perfetto.

Converts the JSONL trace written by :class:`repro.obs.tracer.Tracer` into
the Chrome trace event format (the ``{"traceEvents": [...]}`` JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly).  Two
process groups separate the two clocks the trace mixes:

* **pid 0 — span tree (wall clock):** every ``run → level → phase →
  round`` span becomes a complete (``"X"``) event on one track; Perfetto
  nests them by interval containment, giving the familiar flame view of
  where wall time went;
* **pid 1 — worker lanes (simulated clock):** every ``worker`` chunk
  recorded by the scheduler's :class:`~repro.parallel.scheduler.
  WorkerTimeline` — one lane's busy time in one round — becomes an
  ``"X"`` event on the thread matching its worker id, so stragglers,
  barriers, and idle gaps are visible per lane.  Each chunk carries its
  vertex count and the idle wait that preceded it in ``args``.

The clocks are not on a shared axis — wall seconds and simulated seconds
differ by orders of magnitude — which is exactly why they get separate
process groups rather than one merged view.

Timestamps are microseconds (the format's unit); all groups are shifted
to start at zero.
"""

from __future__ import annotations

import json
from typing import List, Optional

#: Process ids for the two clock domains.
PID_SPANS = 0
PID_WORKERS = 1

_US = 1e6  # seconds -> microseconds


def _metadata(pid: int, tid: Optional[int], name: str, key: str) -> dict:
    event = {
        "ph": "M",
        "pid": pid,
        "name": key,
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def chrome_trace_events(records: List[dict]) -> List[dict]:
    """Chrome ``traceEvents`` for one trace's span/worker records.

    Event records are carried over as instant (``"i"``) events on the
    span track so fault injections and truncation markers stay visible.
    """
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    workers = [r for r in records if r.get("type") == "worker"]

    out: List[dict] = [
        _metadata(PID_SPANS, None, "span tree (wall clock)", "process_name"),
        _metadata(PID_SPANS, 0, "run", "thread_name"),
    ]
    span_shift = min((s["start"] for s in spans), default=0.0)
    for span in sorted(spans, key=lambda s: (s["start"], s["id"])):
        out.append(
            {
                "ph": "X",
                "pid": PID_SPANS,
                "tid": 0,
                "name": span["name"],
                "ts": (span["start"] - span_shift) * _US,
                "dur": (span["wall_seconds"] or 0.0) * _US,
                "args": dict(span.get("attrs") or {}, span_id=span["id"]),
            }
        )
    for event in events:
        out.append(
            {
                "ph": "i",
                "s": "p",  # process-scoped instant
                "pid": PID_SPANS,
                "tid": 0,
                "name": event["name"],
                "ts": (event["t"] - span_shift) * _US,
                "args": dict(event.get("attrs") or {}),
            }
        )

    if workers:
        out.append(
            _metadata(
                PID_WORKERS, None, "workers (simulated clock)", "process_name"
            )
        )
        worker_shift = min(w["start"] for w in workers)
        for lane in sorted({w["worker"] for w in workers}):
            out.append(
                _metadata(PID_WORKERS, lane, f"worker {lane}", "thread_name")
            )
        for chunk in sorted(
            workers, key=lambda w: (w["worker"], w["start"], w["id"])
        ):
            out.append(
                {
                    "ph": "X",
                    "pid": PID_WORKERS,
                    "tid": chunk["worker"],
                    "name": chunk["label"],
                    "ts": (chunk["start"] - worker_shift) * _US,
                    "dur": (chunk["end"] - chunk["start"]) * _US,
                    "args": {
                        "items": chunk["items"],
                        "wait_seconds": chunk["wait"],
                        "span_id": chunk["span"],
                    },
                }
            )

    return out


def chrome_trace(records: List[dict]) -> dict:
    """Full Chrome trace document for ``records`` (validated first)."""
    from repro.obs.schema import TraceSchemaError, validate_trace_records

    problems = validate_trace_records(records)
    if problems:
        raise TraceSchemaError(problems)
    return {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }


def load_trace_records(path) -> List[dict]:
    """Read one trace-JSONL file into its record list."""
    records = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records


def write_chrome_trace(trace_path, out_path) -> dict:
    """Convert ``trace_path`` (JSONL) to ``out_path`` (Chrome JSON).

    Returns the document; raises :class:`~repro.obs.schema.
    TraceSchemaError` when the input trace is invalid.
    """
    document = chrome_trace(load_trace_records(trace_path))
    with open(out_path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document
