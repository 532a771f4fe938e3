"""Declarative health rules and serving SLOs (DESIGN.md §12).

The doctor (:mod:`repro.obs.doctor`) reduces a run's artifacts to a flat
``facts`` dict of dotted names (``run.rounds``, ``metric.<name>``,
``convergence.stall_levels``, ...).  This module evaluates *rules*
against those facts and produces machine-readable :class:`Finding`
records with ``ok``/``warn``/``crit`` severities.  Three rule kinds:

``threshold``
    One fact compared against ``warn``/``crit`` bounds in a direction
    (``above`` = bigger is worse, ``below`` = smaller is worse).
``ratio``
    ``numerator``/``denominator`` facts divided first, then thresholded
    like above (e.g. CAS retry *rate*).  A zero denominator skips.
``trend``
    One registry metric of the current run compared against an
    aggregate (``median``/``mean``/``best``) of comparable history
    records, using :func:`repro.bench.harness.metric_direction` so
    wall-clock regressions and objective regressions both read as
    positive *worsening*; ``warn``/``crit`` are relative-worsening
    bounds (0.001 = 0.1%).

The built-in rule set is :data:`DEFAULT_RULES_SPEC` (via
:func:`default_rules`); a custom set loads from JSON of the same schema
(``repro.obs.health/v1``) through :func:`load_rules`, which is what
``repro doctor --rules FILE`` applies.  A missing fact *skips* the
rule — an uninstrumented run is not unhealthy, it is under-observed —
and skips are reported separately so they never silently hide a gate.

Serving SLOs are a separate small spec (:class:`SLOSpec`, schema
``repro.obs.slo/v1``): per-op p95 latency targets over the
``repro_serve_op_seconds`` histogram plus staleness/escalation/drift
bounds.  ``p95 > target`` is ``warn``; ``p95 > 2x target`` is ``crit``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import mean, median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import metric_direction, relative_worsening
from repro.errors import ReproError
from repro.obs.metrics import sample_quantile

HEALTH_SCHEMA = "repro.obs.health/v1"
SLO_SCHEMA = "repro.obs.slo/v1"

SEVERITIES = ("ok", "warn", "crit")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

_RULE_KINDS = ("threshold", "ratio", "trend")
_DIRECTIONS = ("above", "below")
_BASELINES = ("median", "mean", "best")


class HealthRuleError(ReproError):
    """Malformed rule set / SLO spec (exit code 2 at the CLI boundary)."""


@dataclass
class Finding:
    """One evaluated rule: severity plus the numbers behind it."""

    rule: str
    severity: str
    message: str
    value: Optional[float] = None
    threshold: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.value is not None:
            out["value"] = self.value
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class HealthReport:
    """All findings for one run, plus the rules that could not run."""

    findings: List[Finding] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def worst(self) -> str:
        rank = max(
            (_SEVERITY_RANK[f.severity] for f in self.findings), default=0
        )
        return SEVERITIES[rank]

    @property
    def exit_code(self) -> int:
        """Nonzero exactly when any finding is ``crit``."""
        return 1 if any(f.severity == "crit" for f in self.findings) else 0

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    def extend(self, other: "HealthReport") -> None:
        self.findings.extend(other.findings)
        self.skipped.extend(other.skipped)

    def describe(self) -> str:
        head = (
            f"doctor: {self.count('ok')} ok, {self.count('warn')} warn, "
            f"{self.count('crit')} crit"
        )
        if self.skipped:
            head += f" ({len(self.skipped)} rules skipped)"
        lines = [head]
        ordered = sorted(
            self.findings,
            key=lambda f: (-_SEVERITY_RANK[f.severity], f.rule),
        )
        for finding in ordered:
            lines.append(f"  {finding.severity.upper():<4} "
                         f"{finding.rule}: {finding.message}")
        for note in self.skipped:
            lines.append(f"  SKIP {note}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "schema": "repro.obs.doctor/v1",
            "worst": self.worst,
            "findings": [f.as_dict() for f in self.findings],
            "skipped": list(self.skipped),
        }


@dataclass
class HealthRule:
    """One declarative rule; see the module docstring for the kinds."""

    id: str
    kind: str
    description: str = ""
    # threshold / ratio
    fact: Optional[str] = None
    numerator: Optional[str] = None
    denominator: Optional[str] = None
    direction: str = "above"
    warn: Optional[float] = None
    crit: Optional[float] = None
    # trend
    metric: Optional[str] = None
    baseline: str = "median"
    window: int = 20

    def __post_init__(self) -> None:
        if not self.id:
            raise HealthRuleError("health rule missing id")
        if self.kind not in _RULE_KINDS:
            raise HealthRuleError(
                f"rule {self.id!r}: unknown kind {self.kind!r} "
                f"(expected one of {_RULE_KINDS})"
            )
        if self.direction not in _DIRECTIONS:
            raise HealthRuleError(
                f"rule {self.id!r}: direction must be one of {_DIRECTIONS}"
            )
        if self.warn is None and self.crit is None:
            raise HealthRuleError(
                f"rule {self.id!r}: needs at least one of warn/crit"
            )
        if self.kind == "threshold" and not self.fact:
            raise HealthRuleError(f"rule {self.id!r}: threshold needs fact")
        if self.kind == "ratio" and not (self.numerator and self.denominator):
            raise HealthRuleError(
                f"rule {self.id!r}: ratio needs numerator and denominator"
            )
        if self.kind == "trend":
            if not self.metric:
                raise HealthRuleError(f"rule {self.id!r}: trend needs metric")
            if self.baseline not in _BASELINES:
                raise HealthRuleError(
                    f"rule {self.id!r}: baseline must be one of {_BASELINES}"
                )
            if self.window < 1:
                raise HealthRuleError(f"rule {self.id!r}: window must be >= 1")

    # ------------------------------------------------------------------
    def _trips(self, value: float, bound: float) -> bool:
        if self.direction == "above":
            return value > bound
        return value < bound

    def _severity(self, value: float) -> Tuple[str, Optional[float]]:
        """(severity, the bound that tripped) for a directed value."""
        if self.crit is not None and self._trips(value, self.crit):
            return "crit", self.crit
        if self.warn is not None and self._trips(value, self.warn):
            return "warn", self.warn
        # Report the tightest bound that held, for context.
        held = self.warn if self.warn is not None else self.crit
        return "ok", held

    def _finding(self, value: float, describe_value: str) -> Finding:
        severity, bound = self._severity(value)
        cmp = ">" if self.direction == "above" else "<"
        if severity == "ok":
            message = (
                f"{describe_value} within bounds "
                f"(worst allowed {cmp} {bound:g})"
            )
        else:
            message = f"{describe_value} ({severity} when {cmp} {bound:g})"
        if self.description:
            message += f" — {self.description}"
        return Finding(
            rule=self.id,
            severity=severity,
            message=message,
            value=value,
            threshold=bound,
        )

    def evaluate(
        self,
        facts: Dict[str, float],
        record: Optional[dict] = None,
        history: Optional[Sequence[dict]] = None,
    ) -> Tuple[Optional[Finding], Optional[str]]:
        """Returns ``(finding, None)`` or ``(None, skip_reason)``."""
        if self.kind == "threshold":
            value = facts.get(self.fact)
            if value is None:
                return None, f"{self.id}: fact {self.fact!r} unavailable"
            return self._finding(float(value), f"{self.fact} = {value:g}"), None

        if self.kind == "ratio":
            num = facts.get(self.numerator)
            den = facts.get(self.denominator)
            if num is None or den is None:
                missing = self.numerator if num is None else self.denominator
                return None, f"{self.id}: fact {missing!r} unavailable"
            if den == 0:
                return None, f"{self.id}: denominator {self.denominator} is 0"
            ratio = float(num) / float(den)
            label = f"{self.numerator}/{self.denominator} = {ratio:.4g}"
            return self._finding(ratio, label), None

        # trend
        if record is None:
            return None, f"{self.id}: no registry record for this run"
        current = (record.get("metrics") or {}).get(self.metric)
        if current is None:
            return None, f"{self.id}: metric {self.metric!r} not in record"
        values = [
            r["metrics"][self.metric]
            for r in (history or [])
            if isinstance(r.get("metrics", {}).get(self.metric), (int, float))
        ][-self.window:]
        if not values:
            return None, f"{self.id}: no comparable history for {self.metric!r}"
        direction = metric_direction(self.metric)
        if direction == "info":
            return None, f"{self.id}: metric {self.metric!r} is not comparable"
        if self.baseline == "median":
            base = median(values)
        elif self.baseline == "mean":
            base = mean(values)
        else:  # best
            base = min(values) if direction == "lower" else max(values)
        worsening = relative_worsening(direction, base, float(current))
        finding = self._finding(
            worsening,
            f"{self.metric} {current:g} vs {self.baseline} {base:g} of "
            f"{len(values)} runs ({worsening:+.2%})",
        )
        finding.detail = {
            "metric": self.metric,
            "current": float(current),
            "baseline": float(base),
            "history": len(values),
        }
        return finding, None


def evaluate_rules(
    rules: Sequence[HealthRule],
    facts: Dict[str, float],
    record: Optional[dict] = None,
    history: Optional[Sequence[dict]] = None,
) -> HealthReport:
    report = HealthReport()
    for rule in rules:
        finding, skip = rule.evaluate(facts, record=record, history=history)
        if finding is not None:
            report.findings.append(finding)
        else:
            report.skipped.append(skip)
    return report


# ----------------------------------------------------------------------
# Rule-set / SLO-spec files
# ----------------------------------------------------------------------

_RULE_FIELDS = {
    "id", "kind", "description", "fact", "numerator", "denominator",
    "direction", "warn", "crit", "metric", "baseline", "window",
}


def rules_from_dict(spec: dict) -> List[HealthRule]:
    if spec.get("schema") != HEALTH_SCHEMA:
        raise HealthRuleError(
            f"rule set schema {spec.get('schema')!r} != {HEALTH_SCHEMA!r}"
        )
    raw = spec.get("rules")
    if not isinstance(raw, list) or not raw:
        raise HealthRuleError("rule set needs a non-empty 'rules' list")
    rules = []
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict):
            raise HealthRuleError(f"rule entry is not an object: {entry!r}")
        unknown = set(entry) - _RULE_FIELDS
        if unknown:
            raise HealthRuleError(
                f"rule {entry.get('id')!r}: unknown fields {sorted(unknown)}"
            )
        rule = HealthRule(**entry)
        if rule.id in seen:
            raise HealthRuleError(f"duplicate rule id {rule.id!r}")
        seen.add(rule.id)
        rules.append(rule)
    return rules


def load_rules(path) -> List[HealthRule]:
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise HealthRuleError(f"cannot read rule set {path}: {exc}") from exc
    return rules_from_dict(spec)


def default_rules() -> List[HealthRule]:
    """The built-in rule set, :data:`DEFAULT_RULES_SPEC`."""
    return rules_from_dict(DEFAULT_RULES_SPEC)


#: The built-in rule set, the one every doctor surface applies unless
#: ``repro doctor --rules FILE`` names another.
DEFAULT_RULES_SPEC = {
    "schema": HEALTH_SCHEMA,
    "rules": [
        {
            "id": "run-degraded",
            "kind": "threshold",
            "fact": "run.degraded",
            "direction": "above",
            "crit": 0,
            "description": "run returned a degraded best-so-far result",
        },
        {
            "id": "convergence-stall",
            "kind": "threshold",
            "fact": "convergence.stall_levels",
            "direction": "above",
            "crit": 0,
            "description": (
                "a level hit the iteration cap with a frontier that "
                "never decayed"
            ),
        },
        {
            "id": "rounds-hit-cap",
            "kind": "threshold",
            "fact": "convergence.capped_levels",
            "direction": "above",
            "warn": 0,
            "description": "move phase stopped on the iteration cap",
        },
        {
            "id": "refine-rounds-hit-cap",
            "kind": "threshold",
            "fact": "convergence.refine_capped_levels",
            "direction": "above",
            "warn": 0,
            "description": "refinement stopped on the iteration cap",
        },
        {
            "id": "cas-retry-rate",
            "kind": "ratio",
            "numerator": "metric.repro_cas_retries_total",
            "denominator": "metric.repro_cas_attempts_total",
            "direction": "above",
            "warn": 0.05,
            "crit": 0.25,
            "description": "CAS contention on the atomic move path",
        },
        {
            "id": "supervisor-fallback",
            "kind": "threshold",
            "fact": "supervisor.fallbacks",
            "direction": "above",
            "warn": 0,
            "description": "supervisor descended the fallback ladder",
        },
        {
            "id": "supervisor-salvaged",
            "kind": "threshold",
            "fact": "supervisor.salvaged",
            "direction": "above",
            "crit": 0,
            "description": "supervisor exhausted the ladder and salvaged",
        },
        {
            "id": "singleton-fraction",
            "kind": "threshold",
            "fact": "quality.singleton_fraction",
            "direction": "above",
            "warn": 0.95,
            "description": "nearly every cluster is a singleton",
        },
        {
            "id": "dynamic-escalations",
            "kind": "threshold",
            "fact": "dynamic.escalations",
            "direction": "above",
            "warn": 0,
            "description": "drift guard escalated to full re-clustering",
        },
        {
            "id": "dynamic-drift",
            "kind": "threshold",
            "fact": "dynamic.last_drift",
            "direction": "above",
            "warn": 1e-6,
            "crit": 1e-3,
            "description": "incremental objective drifted from recompute",
        },
        {
            "id": "gateway-read-shed-rate",
            "kind": "threshold",
            "fact": "gateway.read.shed_rate",
            "direction": "above",
            "warn": 0.05,
            "crit": 0.25,
            "description": "admission control shed reads (queue over limit)",
        },
        {
            "id": "gateway-read-expired-rate",
            "kind": "threshold",
            "fact": "gateway.read.expired_rate",
            "direction": "above",
            "warn": 0.05,
            "crit": 0.25,
            "description": "reads dropped past their staleness deadline",
        },
        {
            "id": "gateway-write-shed-rate",
            "kind": "threshold",
            "fact": "gateway.write.shed_rate",
            "direction": "above",
            "warn": 0.05,
            "crit": 0.25,
            "description": "writes shed: commit cadence not keeping up",
        },
        {
            "id": "gateway-write-backlog",
            "kind": "threshold",
            "fact": "gateway.staged",
            "direction": "above",
            "warn": 0,
            "description": "staged writes left uncommitted at shutdown",
        },
        {
            "id": "objective-regression",
            "kind": "trend",
            "metric": "f_objective",
            "baseline": "median",
            "window": 20,
            "warn": 0.001,
            "crit": 0.01,
            "description": "objective worse than the registry median",
        },
        {
            "id": "wall-regression",
            "kind": "trend",
            "metric": "wall_seconds",
            "baseline": "median",
            "window": 20,
            "warn": 0.10,
            "crit": 0.50,
            "description": "wall clock worse than the registry median",
        },
    ],
}


# ----------------------------------------------------------------------
# Serving SLOs
# ----------------------------------------------------------------------

@dataclass
class SLOSpec:
    """Targets for the serving facade; ``None`` disables a bound."""

    op_p95_seconds: Dict[str, float] = field(default_factory=dict)
    max_staleness_updates: Optional[float] = None
    max_escalations: Optional[float] = None
    max_drift_abs: Optional[float] = None

    @staticmethod
    def default() -> "SLOSpec":
        return SLOSpec(
            op_p95_seconds={
                "read": 0.05,
                "commit": 30.0,
                "save": 30.0,
            },
            max_staleness_updates=100000,
            max_escalations=None,
            max_drift_abs=1e-3,
        )

    def as_dict(self) -> dict:
        return {
            "schema": SLO_SCHEMA,
            "op_p95_seconds": dict(self.op_p95_seconds),
            "max_staleness_updates": self.max_staleness_updates,
            "max_escalations": self.max_escalations,
            "max_drift_abs": self.max_drift_abs,
        }


def slo_from_dict(spec: dict) -> SLOSpec:
    if spec.get("schema") != SLO_SCHEMA:
        raise HealthRuleError(
            f"SLO spec schema {spec.get('schema')!r} != {SLO_SCHEMA!r}"
        )
    ops = spec.get("op_p95_seconds", {})
    if not isinstance(ops, dict):
        raise HealthRuleError("op_p95_seconds must be an object")
    known = {
        "schema", "op_p95_seconds", "max_staleness_updates",
        "max_escalations", "max_drift_abs",
    }
    unknown = set(spec) - known
    if unknown:
        raise HealthRuleError(f"SLO spec: unknown fields {sorted(unknown)}")
    return SLOSpec(
        op_p95_seconds={k: float(v) for k, v in ops.items()},
        max_staleness_updates=spec.get("max_staleness_updates"),
        max_escalations=spec.get("max_escalations"),
        max_drift_abs=spec.get("max_drift_abs"),
    )


def load_slo(path) -> SLOSpec:
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise HealthRuleError(f"cannot read SLO spec {path}: {exc}") from exc
    return slo_from_dict(spec)


def _slo_severity(value: float, target: float) -> str:
    if value > 2.0 * target:
        return "crit"
    if value > target:
        return "warn"
    return "ok"


def evaluate_slos(
    spec: SLOSpec,
    samples: Sequence[dict],
    facts: Optional[Dict[str, float]] = None,
) -> Tuple[HealthReport, List[dict]]:
    """Evaluate the SLO spec over exported metric *samples*.

    Returns the findings plus the per-op latency table rows the doctor
    prints and ``--json`` writes: ``{op, count, p50, p95, target,
    severity}``.
    """
    from repro.obs.instrument import M_SERVE_LATENCY, M_SERVE_STALENESS

    report = HealthReport()
    rows: List[dict] = []
    by_op: Dict[str, dict] = {}
    staleness: Optional[float] = None
    for sample in samples:
        name = sample.get("metric")
        if name == M_SERVE_LATENCY and sample.get("type") == "histogram":
            op = sample.get("labels", {}).get("op", "")
            by_op[op] = sample
        elif name == M_SERVE_STALENESS:
            staleness = float(sample.get("value", 0.0))

    for op in sorted(set(by_op) | set(spec.op_p95_seconds)):
        sample = by_op.get(op)
        target = spec.op_p95_seconds.get(op)
        if sample is None:
            if target is not None:
                report.skipped.append(
                    f"slo-{op}-p95: no {op!r} latency samples"
                )
            continue
        p50 = sample_quantile(sample, 0.50)
        p95 = sample_quantile(sample, 0.95)
        row = {
            "op": op,
            "count": int(sample["count"]),
            "p50": p50,
            "p95": p95,
            "target": target,
            "severity": None,
        }
        if target is not None and p95 is not None:
            severity = _slo_severity(p95, target)
            row["severity"] = severity
            report.findings.append(Finding(
                rule=f"slo-{op}-p95",
                severity=severity,
                message=(
                    f"{op} p95 {p95 * 1e3:.3g} ms vs target "
                    f"{target * 1e3:.3g} ms over {row['count']} ops"
                ),
                value=p95,
                threshold=target,
            ))
        rows.append(row)

    facts = facts or {}
    bounds = (
        ("slo-staleness", staleness, spec.max_staleness_updates,
         "updates applied since last snapshot save"),
        ("slo-escalations", facts.get("dynamic.escalations"),
         spec.max_escalations, "drift-guard escalations"),
        ("slo-drift", facts.get("dynamic.last_drift"), spec.max_drift_abs,
         "absolute objective drift"),
    )
    for rule_id, value, bound, what in bounds:
        if bound is None:
            continue
        if value is None:
            report.skipped.append(f"{rule_id}: {what} unavailable")
            continue
        severity = "crit" if value > bound else "ok"
        report.findings.append(Finding(
            rule=rule_id,
            severity=severity,
            message=f"{what} = {value:g} (bound {bound:g})",
            value=float(value),
            threshold=float(bound),
        ))
    return report, rows
