"""Health-rule engine: rule kinds, severities, files, and serving SLOs."""

import json

import pytest

from repro.obs.health import (
    DEFAULT_RULES_SPEC,
    HealthRule,
    HealthRuleError,
    SLOSpec,
    default_rules,
    evaluate_rules,
    evaluate_slos,
    load_rules,
    load_slo,
    rules_from_dict,
    slo_from_dict,
)
from repro.obs.instrument import M_SERVE_LATENCY, M_SERVE_STALENESS

pytestmark = pytest.mark.obs


def threshold_rule(**overrides):
    spec = dict(id="r", kind="threshold", fact="x", direction="above", warn=1.0)
    spec.update(overrides)
    return HealthRule(**spec)


class TestThresholdRules:
    def test_ok_below_warn(self):
        finding, skip = threshold_rule(warn=1.0, crit=5.0).evaluate({"x": 0.5})
        assert skip is None
        assert finding.severity == "ok"

    def test_warn_then_crit_escalation(self):
        rule = threshold_rule(warn=1.0, crit=5.0)
        assert rule.evaluate({"x": 2.0})[0].severity == "warn"
        assert rule.evaluate({"x": 6.0})[0].severity == "crit"

    def test_bound_is_exclusive(self):
        finding, _ = threshold_rule(warn=1.0).evaluate({"x": 1.0})
        assert finding.severity == "ok"

    def test_direction_below(self):
        rule = threshold_rule(direction="below", warn=0.5)
        assert rule.evaluate({"x": 0.1})[0].severity == "warn"
        assert rule.evaluate({"x": 0.9})[0].severity == "ok"

    def test_missing_fact_skips_not_fails(self):
        finding, skip = threshold_rule().evaluate({})
        assert finding is None
        assert "unavailable" in skip


class TestRatioRules:
    def ratio_rule(self):
        return HealthRule(
            id="rate", kind="ratio", numerator="num", denominator="den",
            direction="above", warn=0.05, crit=0.25,
        )

    def test_severity_from_ratio(self):
        rule = self.ratio_rule()
        assert rule.evaluate({"num": 1, "den": 100})[0].severity == "ok"
        assert rule.evaluate({"num": 10, "den": 100})[0].severity == "warn"
        assert rule.evaluate({"num": 30, "den": 100})[0].severity == "crit"

    def test_zero_denominator_skips(self):
        _, skip = self.ratio_rule().evaluate({"num": 1, "den": 0})
        assert "denominator" in skip

    def test_missing_side_skips(self):
        _, skip = self.ratio_rule().evaluate({"num": 1})
        assert "den" in skip


def trend_rule(metric="f_objective", **overrides):
    spec = dict(
        id="trend", kind="trend", metric=metric, baseline="median",
        window=20, warn=0.001, crit=0.01,
    )
    spec.update(overrides)
    return HealthRule(**spec)


def run_record(value, metric="f_objective"):
    return {"metrics": {metric: value}, "workload": {"graph": "karate"}}


class TestTrendRules:
    def test_regression_vs_median_history(self):
        history = [run_record(100.0), run_record(102.0), run_record(98.0)]
        finding, _ = trend_rule().evaluate(
            {}, record=run_record(80.0), history=history
        )
        # f_objective is higher-is-better: 80 vs median 100 is a 20% drop.
        assert finding.severity == "crit"
        assert finding.value == pytest.approx(0.20)

    def test_improvement_is_ok(self):
        finding, _ = trend_rule().evaluate(
            {}, record=run_record(120.0), history=[run_record(100.0)]
        )
        assert finding.severity == "ok"

    def test_lower_is_better_metric(self):
        finding, _ = trend_rule(
            metric="wall_seconds", warn=0.10, crit=0.50
        ).evaluate(
            {},
            record=run_record(2.0, metric="wall_seconds"),
            history=[run_record(1.0, metric="wall_seconds")],
        )
        assert finding.severity == "crit"  # 2x slower
        # A run that recorded NaN never reads as healthy.
        finding, _ = trend_rule(
            metric="wall_seconds", warn=0.10, crit=0.50
        ).evaluate(
            {},
            record=run_record(float("nan"), metric="wall_seconds"),
            history=[run_record(1.0, metric="wall_seconds")],
        )
        assert finding.severity == "crit"
        assert finding.value == float("inf")

    def test_window_keeps_recent_history_only(self):
        history = [run_record(1000.0)] + [run_record(100.0)] * 5
        finding, _ = trend_rule(window=5).evaluate(
            {}, record=run_record(100.0), history=history
        )
        assert finding.severity == "ok"
        assert finding.detail["history"] == 5

    def test_best_baseline(self):
        finding, _ = trend_rule(baseline="best").evaluate(
            {}, record=run_record(100.0),
            history=[run_record(90.0), run_record(110.0)],
        )
        assert finding.detail["baseline"] == 110.0

    def test_no_record_skips(self):
        _, skip = trend_rule().evaluate({})
        assert "no registry record" in skip

    def test_no_history_skips(self):
        _, skip = trend_rule().evaluate({}, record=run_record(1.0), history=[])
        assert "no comparable history" in skip


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(HealthRuleError, match="unknown kind"):
            HealthRule(id="x", kind="magic", fact="f", warn=1)

    def test_needs_a_bound(self):
        with pytest.raises(HealthRuleError, match="warn/crit"):
            HealthRule(id="x", kind="threshold", fact="f")

    def test_threshold_needs_fact(self):
        with pytest.raises(HealthRuleError, match="needs fact"):
            HealthRule(id="x", kind="threshold", warn=1)

    def test_trend_needs_metric(self):
        with pytest.raises(HealthRuleError, match="needs metric"):
            HealthRule(id="x", kind="trend", warn=1)

    def test_bad_schema_rejected(self):
        with pytest.raises(HealthRuleError, match="schema"):
            rules_from_dict({"schema": "nope", "rules": []})

    def test_unknown_field_rejected(self):
        spec = {
            "schema": "repro.obs.health/v1",
            "rules": [{"id": "x", "kind": "threshold", "fact": "f",
                       "warn": 1, "bogus": True}],
        }
        with pytest.raises(HealthRuleError, match="unknown fields"):
            rules_from_dict(spec)

    def test_duplicate_id_rejected(self):
        rule = {"id": "x", "kind": "threshold", "fact": "f", "warn": 1}
        spec = {"schema": "repro.obs.health/v1", "rules": [rule, dict(rule)]}
        with pytest.raises(HealthRuleError, match="duplicate"):
            rules_from_dict(spec)


class TestRuleFiles:
    def test_load_rules_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(DEFAULT_RULES_SPEC))
        loaded = load_rules(path)
        assert [r.id for r in loaded] == [r.id for r in default_rules()]

    def test_load_rules_bad_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{nope")
        with pytest.raises(HealthRuleError, match="cannot read"):
            load_rules(path)


class TestReport:
    def test_exit_code_only_on_crit(self):
        rules = [threshold_rule(id="a", warn=1.0), threshold_rule(id="b", crit=1.0, warn=None)]
        report = evaluate_rules(rules, {"x": 2.0})
        assert report.exit_code == 1
        assert report.worst == "crit"
        report = evaluate_rules([rules[0]], {"x": 2.0})
        assert report.exit_code == 0
        assert report.worst == "warn"

    def test_describe_orders_worst_first(self):
        rules = [
            threshold_rule(id="fine", warn=10.0),
            threshold_rule(id="bad", crit=1.0, warn=None),
        ]
        text = evaluate_rules(rules, {"x": 5.0}).describe()
        lines = text.splitlines()
        assert lines[0].startswith("doctor: 1 ok, 0 warn, 1 crit")
        assert "CRIT bad" in lines[1]


def latency_sample(op, values, buckets=(0.001, 0.01, 0.1, 1.0)):
    """Build one exported histogram sample the way Histogram.samples does."""
    from repro.obs.metrics import Histogram

    hist = Histogram(M_SERVE_LATENCY, buckets=list(buckets))
    for v in values:
        hist.observe(v, op=op)
    (sample,) = hist.samples()
    return sample


class TestSLOs:
    def test_spec_file_round_trip(self, tmp_path):
        spec = SLOSpec.default()
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(spec.as_dict()))
        loaded = load_slo(path)
        assert loaded.op_p95_seconds == spec.op_p95_seconds
        assert loaded.max_staleness_updates == spec.max_staleness_updates

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(HealthRuleError, match="unknown fields"):
            slo_from_dict({"schema": "repro.obs.slo/v1", "surprise": 1})

    def test_p95_within_target_is_ok(self):
        spec = SLOSpec(op_p95_seconds={"query": 0.05})
        report, rows = evaluate_slos(spec, [latency_sample("query", [0.001] * 20)])
        assert report.exit_code == 0
        (row,) = rows
        assert row["op"] == "query"
        assert row["count"] == 20
        assert row["severity"] == "ok"

    def test_p95_over_twice_target_is_crit(self):
        spec = SLOSpec(op_p95_seconds={"query": 0.005})
        report, rows = evaluate_slos(spec, [latency_sample("query", [0.05] * 20)])
        assert rows[0]["severity"] == "crit"
        assert report.exit_code == 1

    def test_p95_between_one_and_two_targets_warns(self):
        spec = SLOSpec(op_p95_seconds={"query": 0.04})
        report, rows = evaluate_slos(spec, [latency_sample("query", [0.05] * 20)])
        assert rows[0]["severity"] == "warn"
        assert report.exit_code == 0

    def test_missing_op_is_skipped_not_failed(self):
        spec = SLOSpec(op_p95_seconds={"save": 1.0})
        report, rows = evaluate_slos(spec, [])
        assert rows == []
        assert any("save" in s for s in report.skipped)
        assert report.exit_code == 0

    def test_staleness_bound(self):
        spec = SLOSpec(max_staleness_updates=10)
        stale = {"metric": M_SERVE_STALENESS, "type": "gauge",
                 "labels": {}, "value": 25.0}
        report, _ = evaluate_slos(spec, [stale])
        (finding,) = report.findings
        assert finding.rule == "slo-staleness"
        assert finding.severity == "crit"

    def test_escalation_and_drift_bounds_from_facts(self):
        spec = SLOSpec(max_escalations=0, max_drift_abs=1e-6)
        report, _ = evaluate_slos(
            spec, [],
            facts={"dynamic.escalations": 2.0, "dynamic.last_drift": 1e-3},
        )
        severities = {f.rule: f.severity for f in report.findings}
        assert severities == {"slo-escalations": "crit", "slo-drift": "crit"}
