"""Run doctor: reduce run artifacts to facts and verdicts.

Everything here consumes what the tracer/metrics/registry already
produce — :meth:`ClusterResult.stats_dict`, the trace JSONL, exported
metric samples, and ``runs.jsonl`` records — with **no new hooks in the
hot path**.  The doctor has two outputs:

* a flat ``facts`` dict of dotted names (``run.rounds``,
  ``convergence.stall_levels``, ``metric.repro_cas_retries_total``,
  ``supervisor.fallbacks``, ``dynamic.escalations``,
  ``quality.singleton_fraction``) that the declarative rules in
  :mod:`repro.obs.health` gate on;
* a per-cluster decomposition of the λ-objective
  (:func:`cluster_decomposition`): ``F_c = intra_c − λ(K_c² − K2_c)/2``
  per cluster, summing exactly to ``F`` — top-k worst clusters, size
  histogram, singleton fraction.

``diagnose()`` bundles them into a :class:`DoctorResult` whose
``report.exit_code`` is the CLI contract: nonzero exactly on ``crit``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.health import (
    HealthReport,
    HealthRule,
    SLOSpec,
    default_rules,
    evaluate_rules,
    evaluate_slos,
)
from repro.obs.instrument import M_SERVE_LATENCY, M_SERVE_STALENESS

#: A best-moves/refine phase counts as *stalled* when it ran at least
#: this many rounds and the final round still moved at least this
#: fraction of the first round's moves — churn without convergence.
STALL_MIN_ROUNDS = 4
STALL_CHURN_FRACTION = 0.5


@dataclass
class DoctorInputs:
    """Everything the doctor may consume; all fields optional.

    Missing inputs skip the rules that need them — an uninstrumented
    run is under-observed, not unhealthy.
    """

    stats: Optional[dict] = None
    trace: Optional[List[dict]] = None
    metric_samples: Optional[List[dict]] = None
    record: Optional[dict] = None
    history: Optional[List[dict]] = None
    dynamic_stats: Optional[dict] = None
    gateway_stats: Optional[dict] = None
    decomposition: Optional[dict] = None
    iteration_cap: Optional[int] = None
    slo: Optional[SLOSpec] = None


@dataclass
class DoctorResult:
    report: HealthReport
    facts: Dict[str, float] = field(default_factory=dict)
    slo_rows: List[dict] = field(default_factory=list)
    decomposition: Optional[dict] = None

    def as_dict(self) -> dict:
        out = self.report.as_dict()
        out["facts"] = {k: self.facts[k] for k in sorted(self.facts)}
        if self.slo_rows:
            out["slo"] = self.slo_rows
        if self.decomposition is not None:
            out["decomposition"] = {
                k: v
                for k, v in self.decomposition.items()
                if k != "per_cluster_f"
            }
        return out


# ----------------------------------------------------------------------
# Facts from each artifact
# ----------------------------------------------------------------------

def _put(facts: Dict[str, float], key: str, value) -> None:
    if isinstance(value, bool):
        facts[key] = 1.0 if value else 0.0
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        facts[key] = float(value)


def stats_facts(
    stats: dict, iteration_cap: Optional[int] = None
) -> Dict[str, float]:
    """Facts from :meth:`ClusterResult.stats_dict` (batch runs)."""
    facts: Dict[str, float] = {}
    for src, dst in (
        ("rounds", "run.rounds"),
        ("moves", "run.moves"),
        ("num_levels", "run.levels"),
        ("num_clusters", "run.num_clusters"),
        ("objective", "run.objective"),
        ("f_objective", "run.f_objective"),
        ("modularity", "run.modularity"),
        ("wall_seconds", "run.wall_seconds"),
        ("sim_time_seconds", "run.sim_time_seconds"),
        ("degraded", "run.degraded"),
    ):
        if src in stats:
            _put(facts, dst, stats[src])
    levels = stats.get("levels") or []
    if levels:
        capped = refine_capped = stalled = 0
        for level in levels:
            frontier = level.get("frontier_sizes") or []
            hit_cap = (
                iteration_cap is not None
                and level.get("iterations", 0) >= iteration_cap
            )
            if hit_cap:
                capped += 1
                if (
                    len(frontier) >= STALL_MIN_ROUNDS
                    and frontier[-1] >= STALL_CHURN_FRACTION * frontier[0]
                ):
                    stalled += 1
            if (
                iteration_cap is not None
                and level.get("refine_iterations", 0) >= iteration_cap
            ):
                refine_capped += 1
        if iteration_cap is not None:
            facts["convergence.capped_levels"] = float(capped)
            facts["convergence.refine_capped_levels"] = float(refine_capped)
            facts["convergence.stall_levels"] = float(stalled)
    repairs = stats.get("input_repairs")
    if isinstance(repairs, dict):
        total = 0.0
        for key, value in repairs.items():
            _put(facts, f"repairs.{key}", value)
            if isinstance(value, (int, float)):
                total += float(value)
        facts["repairs.total"] = total
    supervisor = stats.get("supervisor")
    if isinstance(supervisor, dict):
        for key, value in supervisor.items():
            _put(facts, f"supervisor.{key}", value)
    return facts


def record_facts(record: dict) -> Dict[str, float]:
    """Facts from one ``runs.jsonl`` registry record."""
    facts: Dict[str, float] = {}
    for key, value in (record.get("metrics") or {}).items():
        _put(facts, f"run.{key}", value)
    for key, value in (record.get("info") or {}).items():
        _put(facts, f"run.{key}", value)
    return facts


def metric_facts(samples: Sequence[dict]) -> Dict[str, float]:
    """Facts from exported metric samples (JSONL or ``collect()``).

    Counters sum across label sets into ``metric.<name>``; gauges keep
    the last sample's value; histograms expose ``.count`` / ``.sum``.
    """
    facts: Dict[str, float] = {}
    for sample in samples:
        name = sample.get("metric")
        kind = sample.get("type")
        if not name:
            continue
        key = f"metric.{name}"
        if kind == "counter":
            facts[key] = facts.get(key, 0.0) + float(sample.get("value", 0.0))
        elif kind == "gauge":
            facts[key] = float(sample.get("value", 0.0))
        elif kind == "histogram":
            facts[key + ".count"] = facts.get(key + ".count", 0.0) + float(
                sample.get("count", 0)
            )
            facts[key + ".sum"] = facts.get(key + ".sum", 0.0) + float(
                sample.get("sum", 0.0)
            )
    # A retry counter that never fired is exported as no samples at all;
    # a run with attempts but no retries is a healthy 0 rate, not an
    # unobservable one.
    if (
        "metric.repro_cas_attempts_total" in facts
        and "metric.repro_cas_retries_total" not in facts
    ):
        facts["metric.repro_cas_retries_total"] = 0.0
    return facts


def dynamic_facts(stats: dict) -> Dict[str, float]:
    """Facts from :meth:`DynamicClusterer.stats` (serving runs)."""
    facts: Dict[str, float] = {}
    for src, dst in (
        ("batches_applied", "dynamic.batches"),
        ("moves_applied", "dynamic.moves"),
        ("escalations", "dynamic.escalations"),
        ("last_drift", "dynamic.last_drift"),
        ("updates_since_save", "dynamic.staleness"),
        ("f_objective", "run.f_objective"),
        ("num_clusters", "run.num_clusters"),
    ):
        if stats.get(src) is not None:
            _put(facts, dst, stats[src])
    updates = stats.get("updates_applied")
    if isinstance(updates, dict):
        facts["dynamic.updates"] = float(sum(updates.values()))
    return facts


def gateway_facts(stats: dict) -> Dict[str, float]:
    """Facts from :meth:`ServingGateway.stats` (gateway runs).

    Per request class the raw terminal-status counts become
    ``gateway.<class>.<status>`` facts plus derived ``shed_rate`` /
    ``rejected_rate`` fractions of submissions, so the write-admission
    health rule can threshold on a load-independent ratio.  Reads are
    never shed or rejected, so their rates read 0.
    """
    facts: Dict[str, float] = {}
    for src, dst in (
        ("epoch", "gateway.epoch"),
        ("commits", "gateway.commits"),
        ("staged", "gateway.staged"),
    ):
        if stats.get(src) is not None:
            _put(facts, dst, stats[src])
    requests = stats.get("requests")
    if isinstance(requests, dict):
        for klass, row in requests.items():
            if not isinstance(row, dict):
                continue
            for status, count in row.items():
                if isinstance(count, (int, float)):
                    facts[f"gateway.{klass}.{status}"] = float(count)
            submitted = float(row.get("submitted") or 0.0)
            if submitted > 0:
                for status in ("shed", "rejected"):
                    facts[f"gateway.{klass}.{status}_rate"] = (
                        float(row.get(status) or 0.0) / submitted
                    )
    nested = stats.get("clusterer")
    if isinstance(nested, dict):
        for key, value in dynamic_facts(nested).items():
            facts.setdefault(key, value)
    return facts


# ----------------------------------------------------------------------
# Trace-derived facts
# ----------------------------------------------------------------------

def load_trace(path) -> List[dict]:
    """Read a trace JSONL file into records (no schema enforcement)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def trace_series(records: Sequence[dict]) -> Dict[str, object]:
    """Round and phase series from trace records.

    Returns ``rounds`` (per-round moves/gain, ordered by phase span and
    iteration) and ``phases`` (the rounds of each best-moves/refine
    phase plus its ``stalled`` flag, the stall detector's input).
    """
    rounds = []
    for span in records:
        if span.get("type") != "span" or span.get("name") != "round":
            continue
        attrs = span.get("attrs", {})
        rounds.append(
            {
                "phase_id": span.get("parent"),
                "iteration": attrs.get("iteration", 0),
                "moves": attrs.get("moves", 0),
                "gain": attrs.get("gain", 0.0),
            }
        )
    rounds.sort(key=lambda r: (str(r["phase_id"]), r["iteration"]))

    phases: List[dict] = []
    current_id = object()
    for row in rounds:
        if row["phase_id"] != current_id:
            current_id = row["phase_id"]
            phases.append({"rounds": []})
        phases[-1]["rounds"].append(row)
    for phase in phases:
        moves = [r["moves"] for r in phase["rounds"]]
        phase["stalled"] = bool(
            len(moves) >= STALL_MIN_ROUNDS
            and moves[-1] > 0
            and moves[-1] >= STALL_CHURN_FRACTION * max(moves[0], 1)
        )
    return {"rounds": rounds, "phases": phases}


def trace_facts(series: Dict[str, object]) -> Dict[str, float]:
    facts: Dict[str, float] = {}
    phases = series.get("phases") or []
    rounds = series.get("rounds") or []
    if rounds:
        facts["convergence.rounds"] = float(len(rounds))
        facts["convergence.total_gain"] = float(
            sum(r["gain"] for r in rounds)
        )
    if phases:
        stalled = sum(1 for p in phases if p["stalled"])
        facts["convergence.stalled_phases"] = float(stalled)
        # Feed the stall rule from the trace too: a stalled phase IS a
        # stalled level when stats-based detection (needs the iteration
        # cap) is unavailable; take the max when both exist.
        facts["convergence.stall_levels"] = max(
            facts.get("convergence.stall_levels", 0.0), float(stalled)
        )
    return facts


# ----------------------------------------------------------------------
# Per-cluster objective decomposition
# ----------------------------------------------------------------------

def cluster_decomposition(
    graph, assignments, resolution: float, top_k: int = 8
) -> dict:
    """Per-cluster split of ``F = Σ_c [intra_c − λ(K_c² − K2_c)/2]``.

    Same arithmetic as :mod:`repro.core.objective`, vectorized per
    cluster instead of summed: ``sum(per_cluster_f) == F`` exactly (up
    to float association).  Returns the top-k worst clusters by
    ``F_c``, a power-of-two size histogram, and the singleton fraction.
    """
    assignments = np.asarray(assignments)
    ids, dense = np.unique(assignments, return_inverse=True)
    n_clusters = int(ids.size)
    if n_clusters == 0:
        return {
            "num_clusters": 0, "singleton_fraction": 0.0,
            "size_histogram": [], "worst": [], "f_total": 0.0,
            "per_cluster_f": np.zeros(0),
        }
    intra = np.bincount(
        dense, weights=graph.self_loops, minlength=n_clusters
    ).astype(float)
    if graph.num_directed_edges:
        src = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64),
            np.diff(graph.offsets),
        )
        same = dense[src] == dense[graph.neighbors]
        intra += (
            np.bincount(
                dense[src[same]],
                weights=graph.weights[same],
                minlength=n_clusters,
            )
            / 2.0
        )
    big_k = np.bincount(dense, weights=graph.node_weights, minlength=n_clusters)
    big_k2 = np.bincount(
        dense, weights=graph.node_weight_sq, minlength=n_clusters
    )
    penalty = (big_k**2 - big_k2) / 2.0
    per_f = intra - resolution * penalty
    sizes = np.bincount(dense, minlength=n_clusters)

    worst_order = np.argsort(per_f, kind="stable")[:top_k]
    worst = [
        {
            "cluster": int(ids[i]),
            "size": int(sizes[i]),
            "intra": float(intra[i]),
            "penalty": float(penalty[i]),
            "f": float(per_f[i]),
        }
        for i in worst_order
    ]
    histogram = []
    lo = 1
    max_size = int(sizes.max())
    while lo <= max_size:
        hi = 2 * lo - 1
        count = int(((sizes >= lo) & (sizes <= hi)).sum())
        histogram.append({"lo": lo, "hi": hi, "count": count})
        lo *= 2
    return {
        "num_clusters": n_clusters,
        "singleton_fraction": float((sizes == 1).sum() / n_clusters),
        "size_histogram": histogram,
        "worst": worst,
        "f_total": float(per_f.sum()),
        "per_cluster_f": per_f,
    }


def decomposition_facts(decomposition: dict) -> Dict[str, float]:
    facts: Dict[str, float] = {}
    facts["quality.singleton_fraction"] = float(
        decomposition.get("singleton_fraction", 0.0)
    )
    per_f = decomposition.get("per_cluster_f")
    if per_f is not None and len(per_f):
        facts["quality.worst_cluster_f"] = float(np.min(per_f))
        facts["quality.negative_cluster_fraction"] = float(
            (np.asarray(per_f) < 0).sum() / len(per_f)
        )
    return facts


# ----------------------------------------------------------------------
# The doctor
# ----------------------------------------------------------------------

def collect_facts(inputs: DoctorInputs) -> Dict[str, float]:
    """Merge facts from every provided artifact (later never clobbers
    an earlier numeric with a missing one; order is broad → specific)."""
    facts: Dict[str, float] = {}
    if inputs.record is not None:
        facts.update(record_facts(inputs.record))
    if inputs.stats is not None:
        facts.update(stats_facts(inputs.stats, inputs.iteration_cap))
    if inputs.metric_samples is not None:
        facts.update(metric_facts(inputs.metric_samples))
    if inputs.dynamic_stats is not None:
        facts.update(dynamic_facts(inputs.dynamic_stats))
    if inputs.gateway_stats is not None:
        facts.update(gateway_facts(inputs.gateway_stats))
    if inputs.trace is not None:
        series = trace_series(inputs.trace)
        stats_stall = facts.get("convergence.stall_levels")
        trace_derived = trace_facts(series)
        facts.update(trace_derived)
        if stats_stall is not None:
            facts["convergence.stall_levels"] = max(
                stats_stall, facts.get("convergence.stall_levels", 0.0)
            )
    if inputs.decomposition is not None:
        facts.update(decomposition_facts(inputs.decomposition))
    return facts


def diagnose(
    inputs: DoctorInputs,
    rules: Optional[Sequence[HealthRule]] = None,
) -> DoctorResult:
    """Evaluate health rules (and SLOs when serving telemetry exists)."""
    facts = collect_facts(inputs)
    report = evaluate_rules(
        rules if rules is not None else default_rules(),
        facts,
        record=inputs.record,
        history=inputs.history,
    )
    slo_rows: List[dict] = []
    samples = inputs.metric_samples or []
    has_serving = any(
        s.get("metric") in (M_SERVE_LATENCY, M_SERVE_STALENESS)
        for s in samples
    )
    if inputs.slo is not None or has_serving:
        spec = inputs.slo if inputs.slo is not None else SLOSpec.default()
        slo_report, slo_rows = evaluate_slos(spec, samples, facts)
        report.extend(slo_report)
    return DoctorResult(
        report=report,
        facts=facts,
        slo_rows=slo_rows,
        decomposition=inputs.decomposition,
    )
