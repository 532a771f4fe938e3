"""Observability subsystem: tracing, metrics, and the run doctor.

Public surface (DESIGN.md §7):

* :class:`~repro.obs.instrument.Instrumentation` — the per-run context
  threaded through :func:`repro.core.api.cluster`, bundling a
  :class:`~repro.obs.tracer.Tracer` (nested ``run → level → phase →
  round`` spans) and a :class:`~repro.obs.metrics.MetricsRegistry`
  (moves, gains, frontier sizes, compression ratios, CAS retries);
* :mod:`repro.obs.schema` — trace JSONL validation (the CI smoke gate,
  ``repro obs validate-trace``);
* :mod:`repro.obs.health` / :mod:`repro.obs.doctor` — the run doctor
  (DESIGN.md §12): declarative health rules + serving SLOs over the
  artifacts above;
* :mod:`repro.obs.timeline` — the Chrome/Perfetto span and worker-lane
  view of a trace (``repro obs timeline``).

The bench harness and its ``BENCH_*.json`` regression compare live in
:mod:`repro.bench.harness`; the registry and the trend rule reuse it.
"""

from repro.obs.instrument import (
    M_ATOMIC_QUEUE,
    M_CAS_ATTEMPTS,
    M_CAS_INJECTED,
    M_CAS_RETRIES,
    M_COMPRESSION,
    M_DEDUP_HITS,
    M_DEDUP_RATE,
    M_FRONTIER,
    M_LEVEL_SECONDS,
    M_MODULARITY,
    M_MOVES,
    M_OBJECTIVE,
    M_RESILIENCE_EVENTS,
    M_ROUND_GAIN,
    M_ROUNDS,
    NULL_INSTRUMENTATION,
    Instrumentation,
    instr_of,
)
from repro.obs.doctor import (
    DoctorInputs,
    DoctorResult,
    cluster_decomposition,
    collect_facts,
    diagnose,
    trace_series,
)
from repro.obs.health import (
    Finding,
    HealthReport,
    HealthRule,
    HealthRuleError,
    SLOSpec,
    default_rules,
    evaluate_rules,
    evaluate_slos,
    load_rules,
    load_slo,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    sample_quantile,
)
from repro.obs.registry import (
    RUNS_SCHEMA,
    RunRegistryError,
    append_run,
    find_run,
    load_runs,
    make_run_record,
    validate_run_record,
)
from repro.obs.timeline import chrome_trace, write_chrome_trace
from repro.obs.tracer import NULL_SPAN, Span, SpanNode, Tracer, span_tree

__all__ = [
    "Counter",
    "DoctorInputs",
    "DoctorResult",
    "Finding",
    "Gauge",
    "HealthReport",
    "HealthRule",
    "HealthRuleError",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "SLOSpec",
    "M_ATOMIC_QUEUE",
    "M_CAS_ATTEMPTS",
    "M_CAS_INJECTED",
    "M_CAS_RETRIES",
    "M_COMPRESSION",
    "M_DEDUP_HITS",
    "M_DEDUP_RATE",
    "M_FRONTIER",
    "M_LEVEL_SECONDS",
    "M_MODULARITY",
    "M_MOVES",
    "M_OBJECTIVE",
    "M_RESILIENCE_EVENTS",
    "M_ROUND_GAIN",
    "M_ROUNDS",
    "NULL_INSTRUMENTATION",
    "NULL_SPAN",
    "RUNS_SCHEMA",
    "RunRegistryError",
    "Span",
    "SpanNode",
    "Tracer",
    "append_run",
    "chrome_trace",
    "cluster_decomposition",
    "collect_facts",
    "default_rules",
    "diagnose",
    "evaluate_rules",
    "evaluate_slos",
    "find_run",
    "instr_of",
    "load_rules",
    "load_runs",
    "load_slo",
    "make_run_record",
    "sample_quantile",
    "span_tree",
    "trace_series",
    "validate_run_record",
]
