"""The per-run instrumentation context threaded through ``cluster()``.

One :class:`Instrumentation` bundles a :class:`~repro.obs.tracer.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry` for one clustering run.
It travels the same conduit :class:`~repro.resilience.faults.FaultPlan`
does: :func:`repro.core.api.cluster` attaches it to the simulated
scheduler, and every layer that already receives ``sched`` — the five
BEST-MOVES engines, the multilevel drivers, the atomics — reaches it via
:func:`instr_of` without signature changes.

Cheapness contract (ISSUE 2): with instrumentation absent *or* constructed
but disabled, every hook degenerates to an attribute load and an
``enabled`` check — no span objects, no dict churn, no metric lookups —
verified by ``benchmarks/bench_overhead.py`` (<3% wall overhead).

Standard metric names (DESIGN.md §7) are module constants so tests,
benches, and dashboards never hardcode strings twice.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Tracer

# ---------------------------------------------------------------------------
# standard metric names
# ---------------------------------------------------------------------------
#: Vertex moves applied, labeled by engine (counter).
M_MOVES = "repro_moves_total"
#: BEST-MOVES rounds executed, labeled by engine (counter).
M_ROUNDS = "repro_rounds_total"
#: Objective improvement per round, labeled by engine (histogram).
M_ROUND_GAIN = "repro_round_gain"
#: Frontier size |V'| at the start of each round (histogram).
M_FRONTIER = "repro_frontier_size"
#: Coarse/fine vertex ratio per compression (histogram).
M_COMPRESSION = "repro_compression_ratio"
#: Wall seconds per coarsening level, including compression (histogram).
M_LEVEL_SECONDS = "repro_level_seconds"
#: CAS retries charged by contention windows (counter).
M_CAS_RETRIES = "repro_cas_retries_total"
#: Atomic update attempts issued by fetch-and-add windows (counter).
M_CAS_ATTEMPTS = "repro_cas_attempts_total"
#: Injected CAS failures from the resilience fault plan (counter).
M_CAS_INJECTED = "repro_cas_injected_failures_total"
#: Queue length on the hottest contended location per atomic window
#: (histogram) — the "twitter contention" probe (Appendix C).
M_ATOMIC_QUEUE = "repro_atomic_queue_depth"
#: Fraction of frontier candidates removed as duplicates (histogram).
M_DEDUP_RATE = "repro_frontier_dedup_rate"
#: Duplicate frontier candidates dropped by dedup (counter).
M_DEDUP_HITS = "repro_frontier_dedup_hits_total"
#: Resilience events, labeled by kind: note/degrade/budget-stop/... (counter).
M_RESILIENCE_EVENTS = "repro_resilience_events_total"
#: Final unordered LambdaCC objective F of the run (gauge).
M_OBJECTIVE = "repro_objective_f"
#: Final modularity of the run (gauge).
M_MODULARITY = "repro_modularity"
#: Batch size per best-move kernel invocation (histogram).
M_KERNEL_BATCH = "repro_kernel_batch_size"
#: Distinct (vertex, neighbor cluster) pairs per native batch (histogram).
M_KERNEL_SEGMENTS = "repro_kernel_segments"
#: Supervised attempts started, labeled by ladder rung (counter).
M_SUPERVISOR_ATTEMPTS = "repro_supervisor_attempts_total"
#: Supervisor retries of a failed attempt, labeled by reason (counter).
M_SUPERVISOR_RETRIES = "repro_supervisor_retries_total"
#: Ladder descents to a lower rung, labeled by target rung (counter).
M_SUPERVISOR_FALLBACKS = "repro_supervisor_fallbacks_total"
#: Watchdog deadline fires, labeled by scope: run/level (counter).
M_SUPERVISOR_WATCHDOG = "repro_supervisor_watchdog_fires_total"
#: Dynamic update batches applied (counter).
M_DYNAMIC_BATCHES = "repro_dynamic_batches_total"
#: Individual edge updates applied, labeled by op: insert/delete/reweight
#: (counter).
M_DYNAMIC_UPDATES = "repro_dynamic_updates_total"
#: Seed-frontier size per update batch — touched-edge endpoints (histogram).
M_DYNAMIC_SEED = "repro_dynamic_seed_frontier"
#: Vertex moves made by localized refinement, labeled by engine (counter).
M_DYNAMIC_MOVES = "repro_dynamic_moves_total"
#: |incremental F - recomputed F| at the last drift-guard check (gauge).
M_DYNAMIC_DRIFT = "repro_dynamic_drift_abs"
#: Drift-guard escalations to full re-clustering, labeled by reason (counter).
M_DYNAMIC_ESCALATIONS = "repro_dynamic_escalations_total"
#: Serving op latency in seconds, labeled by op: read/write (request
#: latency) and commit/save/audit (wall time) (histogram).  Fed by the
#: serving gateway.
M_SERVE_LATENCY = "repro_serve_op_seconds"
#: Edge updates applied to the live state since the last snapshot save
#: (gauge) — the serving staleness the SLO spec bounds.
M_SERVE_STALENESS = "repro_serve_staleness_updates"
#: Serving-gateway requests resolved, labeled by kind: read/write and
#: status: ok/shed/expired/rejected (counter).  Every submitted request
#: lands here exactly once — the no-silent-drops accounting invariant.
M_GATEWAY_REQUESTS = "repro_gateway_requests_total"
#: Staged-write queue depth observed at each write admission decision,
#: labeled kind=write (histogram).
M_GATEWAY_QUEUE = "repro_gateway_queue_depth"
#: Coalesced updates per committed gateway batch (histogram).
M_GATEWAY_BATCH = "repro_gateway_batch_updates"
#: Latest published label epoch index (gauge).
M_GATEWAY_EPOCH = "repro_gateway_epoch"

#: Latency buckets for M_SERVE_LATENCY: a 1-2.5-5 ladder from 1 µs to
#: 50 s — the default registry ladder starts at 1 ms, far too coarse for
#: sub-millisecond query ops.
SERVE_LATENCY_BUCKETS = tuple(
    m * 10.0**e for e in range(-6, 2) for m in (1.0, 2.5, 5.0)
)


class Instrumentation:
    """Tracer + metrics registry for one run (see module docstring).

    ``enabled=False`` keeps the object attachable while making every hook
    a near-free no-op — the configuration the overhead bench measures.
    """

    __slots__ = ("enabled", "tracer", "metrics", "profile", "timeline")

    def __init__(
        self,
        enabled: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        profile: bool = False,
    ) -> None:
        self.enabled = enabled
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profile = profile
        #: The session's simulated worker lanes
        #: (:class:`~repro.parallel.scheduler.WorkerTimeline`), created by
        #: the first scheduler attached while enabled and laid at each of
        #: its schedulers' round barriers from their ledger rows.
        self.timeline = None

    # ------------------------------------------------------------------
    # tracing hooks
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a nested span (no-op handle when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        if self.enabled:
            self.tracer.event(name, **attrs)

    def worker_chunk(
        self,
        worker: int,
        start: float,
        end: float,
        label: str,
        items: int = 0,
        wait: float = 0.0,
    ) -> None:
        """Record a simulated worker's chunk interval (no-op when disabled)."""
        if self.enabled:
            self.tracer.worker_chunk(worker, start, end, label, items, wait)

    # ------------------------------------------------------------------
    # metric hooks
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, **labels) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value, **labels)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value, **labels)

    def record_round(
        self, engine: str, frontier: int, moves: int, gain: float
    ) -> None:
        """One BEST-MOVES round's standard metrics, in one call."""
        if not self.enabled:
            return
        self.count(M_ROUNDS, 1.0, engine=engine)
        if moves:
            self.count(M_MOVES, float(moves), engine=engine)
        self.observe(M_ROUND_GAIN, gain, engine=engine)
        self.observe(M_FRONTIER, float(frontier), engine=engine)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_trace(self, path) -> None:
        """Write the span/event trace as JSONL."""
        self.tracer.write_jsonl(path)

    def write_metrics(self, path) -> None:
        """Write the metrics as JSONL, whatever the file is named."""
        self.metrics.write_jsonl(path)


#: Shared always-disabled context used when no instrumentation is attached,
#: so call sites never need a None check.
NULL_INSTRUMENTATION = Instrumentation(enabled=False)


def instr_of(sched) -> Instrumentation:
    """The instrumentation attached to ``sched``, or the disabled default.

    Mirrors how the fault-injection hooks ride ``sched.faults``: anything
    holding the scheduler can observe without new plumbing.
    """
    instr = getattr(sched, "instr", None)
    return instr if instr is not None else NULL_INSTRUMENTATION
