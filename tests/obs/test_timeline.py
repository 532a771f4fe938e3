"""Worker timelines: schema validation, lane exclusivity, lane
conservation, Chrome export."""

import json

import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.engines import ENGINES
from repro.core.options import RunOptions
from repro.dynamic import DynamicClusterer, UpdateBatch
from repro.graphs.karate import karate_club_graph
from repro.obs.instrument import Instrumentation
from repro.resilience.context import ResiliencePolicy
from repro.resilience.faults import FaultPlan
from repro.obs.schema import TraceSchemaError, validate_trace_records
from repro.obs.timeline import (
    PID_SPANS,
    PID_WORKERS,
    chrome_trace,
    load_trace_records,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.parallel import scheduler as scheduler_module
from repro.parallel.scheduler import (
    OPS_PER_SECOND,
    SimulatedScheduler,
    WorkerTimeline,
)

pytestmark = pytest.mark.obs


def _traced_run(options=None, **config_kwargs):
    instr = Instrumentation()
    config = ClusteringConfig(resolution=0.05, seed=3, **config_kwargs)
    options = RunOptions(instrumentation=instr, **(options or {}))
    result = cluster(karate_club_graph(), config, options)
    return result, instr


class _LaidRounds:
    """Records, for every :meth:`WorkerTimeline.lay`, the ledger rows it
    was given, the timeline's ``tau`` and the worker records it sent."""

    def __init__(self, monkeypatch):
        self.rounds = []
        lay = WorkerTimeline.lay

        def recording_lay(timeline, rows, label, items):
            before = len(timeline.instr.tracer.worker_records())
            lay(timeline, rows, label, items)
            chunks = timeline.instr.tracer.worker_records()[before:]
            self.rounds.append((list(rows), timeline.tau, chunks))

        monkeypatch.setattr(WorkerTimeline, "lay", recording_lay)

    def laid_rows(self):
        return [row for rows, _, _ in self.rounds for row in rows]

    def check(self, instr):
        """Each round's chunks are busy its ``(W + C) / OPS`` seconds with
        one chunk per lane, and no lane's chunks overlap."""
        assert len(self.rounds) > 1
        for rows, tau, chunks in self.rounds:
            work = sum(w for _, w, _, _ in rows)
            critical = sum(d * (1.0 + tau) + s for _, _, d, s in rows)
            busy = sum(c["end"] - c["start"] for c in chunks)
            assert busy == pytest.approx(
                (work + critical) / OPS_PER_SECOND, rel=1e-12, abs=0.0
            )
            lanes = [c["worker"] for c in chunks]
            assert lanes == list(range(len(lanes)))
            assert all(c["end"] > c["start"] for c in chunks)
        by_lane = {}
        for chunk in instr.tracer.worker_records():
            by_lane.setdefault(chunk["worker"], []).append(chunk)
        for chunks in by_lane.values():
            for prev, nxt in zip(chunks, chunks[1:]):
                assert nxt["start"] >= prev["end"]
        assert validate_trace_records(instr.tracer.records) == []


def test_traced_run_emits_worker_chunks_per_lane():
    _, instr = _traced_run()
    workers = instr.tracer.worker_records()
    assert workers, "instrumented run produced no worker chunks"
    lanes = {w["worker"] for w in workers}
    assert len(lanes) > 1  # parallel run spreads over multiple lanes
    assert all(w["end"] >= w["start"] for w in workers)
    assert all(w["items"] >= 0 and w["wait"] >= 0.0 for w in workers)
    # The trace (spans + events + worker chunks) passes schema validation,
    # which includes the strict per-lane non-overlap check.
    assert validate_trace_records(instr.tracer.records) == []


def test_worker_chunks_never_overlap_within_a_lane():
    _, instr = _traced_run()
    by_lane = {}
    for chunk in instr.tracer.worker_records():
        by_lane.setdefault(chunk["worker"], []).append(chunk)
    for chunks in by_lane.values():
        chunks.sort(key=lambda c: c["start"])
        for prev, nxt in zip(chunks, chunks[1:]):
            assert nxt["start"] >= prev["end"] - 1e-9


def test_one_chunk_per_lane_per_round():
    _, instr = _traced_run()
    records = instr.tracer.records
    rounds = {
        r["id"] for r in records if r["type"] == "span" and r["name"] == "round"
    }
    keys = [
        (w["span"], w["worker"])
        for w in instr.tracer.worker_records()
        if w["span"] in rounds
    ]
    assert keys
    assert len(keys) == len(set(keys))


def test_lane_busy_total_is_the_per_region_total():
    # Pinned from the timeline that recorded one chunk per charged region:
    # laying each round's lanes from its ledger rows keeps the busy total.
    # Karate's largest round spreads over 5 lanes.
    _, instr = _traced_run()
    chunks = instr.tracer.worker_records()
    assert len({w["worker"] for w in chunks}) == 5
    assert sum(w["end"] - w["start"] for w in chunks) == pytest.approx(
        3.0154598686778676e-06, rel=1e-9
    )


def test_chunk_spans_lane_busy_time_and_carries_later_idle():
    instr = Instrumentation()
    sched = SimulatedScheduler(num_workers=2, tau=0.0, instr=instr)
    share = 256.0 / OPS_PER_SECOND
    critical = 1.0 / OPS_PER_SECOND
    sched.charge(512.0, 0.0, "window")  # work over both lanes
    sched.charge(0.0, 1.0, "iter")  # critical path on lane 0 only
    sched.round_barrier(items=4)  # lane 1 idles `critical` at the join
    sched.charge(512.0, 1.0, "next")
    sched.round_barrier(items=2)
    expected = [
        (0, 0.0, share + critical, 2, 0.0),
        (1, 0.0, share, 2, 0.0),
        (0, share + critical, 2 * share + 2 * critical, 1, 0.0),
        (1, share + critical, 2 * share + critical, 1, critical),
    ]
    workers = instr.tracer.worker_records()
    assert len(workers) == len(expected)
    for chunk, want in zip(workers, expected):
        got = (chunk["worker"], chunk["start"], chunk["end"], chunk["items"],
               chunk["wait"])
        assert got == pytest.approx(want, abs=1e-15)


def test_chunk_backstop_truncates_once(monkeypatch):
    monkeypatch.setattr(scheduler_module, "MAX_WORKER_CHUNKS", 5)
    _, instr = _traced_run()
    assert len(instr.tracer.worker_records()) == 5
    events = [
        r for r in instr.tracer.records
        if r["type"] == "event" and r["name"] == "worker-timeline-truncated"
    ]
    assert [e["attrs"]["chunks"] for e in events] == [5]


def test_dynamic_session_continues_the_lanes(monkeypatch):
    # Each update batch builds its own scheduler; all of them lay chunks
    # on the session's one timeline, after the bootstrap run's, and each
    # of their rounds conserves its ledger cost.
    laid = _LaidRounds(monkeypatch)
    instr = Instrumentation()
    config = ClusteringConfig(resolution=0.05, seed=3)
    dyn = DynamicClusterer.bootstrap(
        karate_club_graph(), config, instrumentation=instr
    )
    bootstrap = len(laid.rounds)
    for edge in [(0, 9), (5, 20), (12, 30)]:
        dyn.apply(UpdateBatch.inserts([edge]))
    assert "update" in {
        chunk["label"] for _, _, chunks in laid.rounds[bootstrap:]
        for chunk in chunks
    }
    laid.check(instr)


def test_new_worker_count_starts_at_the_latest_lane_clock():
    instr = Instrumentation()
    wide = SimulatedScheduler(num_workers=4, instr=instr)
    wide.charge(4096.0, 8.0, "wide")
    wide.round_barrier(items=4)
    assert SimulatedScheduler(num_workers=4, instr=instr)._timeline is (
        wide._timeline
    )
    narrow = SimulatedScheduler(num_workers=1, instr=instr)
    narrow.charge(256.0, 0.0, "narrow")
    narrow.round_barrier(items=1)
    workers = instr.tracer.worker_records()
    assert workers[-1]["start"] == max(w["end"] for w in workers[:-1])


@pytest.mark.parametrize(
    "engine,faults",
    [pytest.param(engine, None, id=engine) for engine in sorted(ENGINES)]
    + [pytest.param(None, "cas-fail=0.5", id="cas-fail")],
)
def test_every_round_conserves_its_ledger_cost(monkeypatch, engine, faults):
    laid = _LaidRounds(monkeypatch)
    options = {"engine": engine}
    if faults is not None:
        plan = FaultPlan.from_spec(faults, seed=5)
        options["resilience"] = ResiliencePolicy(faults=plan)
    result, instr = _traced_run(options)
    laid.check(instr)
    # Every ledger row is laid once, in charge order.
    assert laid.laid_rows() == [
        (r.label, r.work, r.depth, r.serial) for r in result.ledger.regions()
    ]
    if faults is not None:
        assert sum(plan.counts.values()) > 0
        assert any(row[0].endswith("-injected-cas") for row in laid.laid_rows())


def test_schema_flags_overlapping_worker_chunks():
    tracer = Tracer()
    with tracer.span("run"):
        tracer.worker_chunk(0, 0.0, 2.0, "a")
        tracer.worker_chunk(0, 1.0, 3.0, "b")  # overlaps chunk "a"
        tracer.worker_chunk(1, 1.0, 3.0, "c")  # different lane: fine
    problems = validate_trace_records(tracer.records)
    assert any("worker 0" in p and "starts at" in p for p in problems)
    assert not any("worker 1" in p for p in problems)


def test_schema_rejects_malformed_worker_records():
    tracer = Tracer()
    with tracer.span("run"):
        tracer.worker_chunk(0, 0.0, 1.0, "ok")
    good = list(tracer.records)
    bad = [dict(r) for r in good]
    for record in bad:
        if record["type"] == "worker":
            record["end"] = record["start"] - 1.0
    assert any("ends before" in p for p in validate_trace_records(bad))
    bad = [dict(r) for r in good]
    for record in bad:
        if record["type"] == "worker":
            record["worker"] = -2
    assert any("non-negative" in p for p in validate_trace_records(bad))


def test_chrome_trace_shape_and_lane_exclusivity(tmp_path):
    result, instr = _traced_run()
    trace_path = tmp_path / "run.jsonl"
    out_path = tmp_path / "run.chrome.json"
    instr.write_trace(trace_path)
    write_chrome_trace(trace_path, out_path)

    document = json.loads(out_path.read_text())  # valid JSON on disk
    events = document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"

    span_events = [
        e for e in events if e["ph"] == "X" and e["pid"] == PID_SPANS
    ]
    worker_events = [
        e for e in events if e["ph"] == "X" and e["pid"] == PID_WORKERS
    ]
    assert {e["name"] for e in span_events} >= {"run", "level", "phase"}
    assert worker_events

    # One lane per simulated worker, and within each lane the complete
    # events are strictly non-overlapping.
    lanes = {}
    for event in worker_events:
        lanes.setdefault(event["tid"], []).append(event)
    assert len(lanes) > 1
    for chunks in lanes.values():
        chunks.sort(key=lambda e: e["ts"])
        for prev, nxt in zip(chunks, chunks[1:]):
            assert nxt["ts"] >= prev["ts"] + prev["dur"] - 1e-3  # us slack

    # Thread-name metadata names every lane.
    named = {
        e["tid"]
        for e in events
        if e["ph"] == "M" and e["pid"] == PID_WORKERS and "tid" in e
    }
    assert named == set(lanes)


def test_chrome_trace_rejects_invalid_records():
    with pytest.raises(TraceSchemaError):
        chrome_trace([{"type": "span", "name": "broken"}])


def test_sequential_run_uses_single_lane():
    _, instr = _traced_run(parallel=False, num_workers=1)
    workers = instr.tracer.worker_records()
    assert workers
    assert {w["worker"] for w in workers} == {0}


def test_load_trace_records_round_trip(tmp_path):
    _, instr = _traced_run()
    path = tmp_path / "t.jsonl"
    instr.write_trace(path)
    records = load_trace_records(path)
    assert len(records) == len(instr.tracer.records)
    assert validate_trace_records(records) == []
