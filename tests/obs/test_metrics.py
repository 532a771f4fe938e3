"""Metrics registry: kinds, labels, quantiles and the JSONL round trip."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_accumulates_per_label_set():
    counter = Counter("moves_total")
    counter.inc(3, engine="relaxed")
    counter.inc(2, engine="relaxed")
    counter.inc(5, engine="colored")
    assert counter.value(engine="relaxed") == 5
    assert counter.value(engine="colored") == 5
    assert counter.value(engine="missing") == 0
    assert counter.total() == 10


def test_counter_rejects_negative_increment():
    counter = Counter("c_total")
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)


def test_gauge_last_write_wins():
    gauge = Gauge("objective")
    gauge.set(1.0)
    gauge.set(2.5)
    assert gauge.value() == 2.5
    assert gauge.value(run="other") is None


def test_histogram_summary_and_cumulative_buckets():
    hist = Histogram("sizes", buckets=[1.0, 10.0, 100.0])
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.observe(value)
    assert hist.count() == 4
    assert hist.sum() == 555.5
    (sample,) = hist.samples()
    assert sample["min"] == 0.5
    assert sample["max"] == 500.0
    # Cumulative: <=1 catches 0.5; <=10 adds 5.0; <=100 adds 50.0; the
    # 500.0 observation lives only in the implicit +Inf bucket.
    assert sample["buckets"] == {"1": 1, "10": 2, "100": 3}


def test_invalid_names_rejected():
    with pytest.raises(ValueError, match="invalid metric name"):
        Counter("0starts-with-digit")
    counter = Counter("ok_total")
    with pytest.raises(ValueError, match="invalid label name"):
        counter.inc(1, **{"bad-label": "x"})


def test_registry_lazy_creation_and_kind_conflict():
    registry = MetricsRegistry()
    assert registry.counter("x_total") is registry.counter("x_total")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("x_total")
    assert registry.get("x_total").kind == "counter"
    assert registry.get("nope") is None


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("moves_total").inc(7, engine="relaxed")
    registry.counter("moves_total").inc(3, engine="event")
    registry.gauge("objective_f").set(12.5)
    hist = registry.histogram("gain", buckets=[1.0, 10.0])
    hist.observe(0.5, engine="relaxed")
    hist.observe(5.0, engine="relaxed")
    return registry


def test_jsonl_round_trip(tmp_path):
    registry = _populated_registry()
    path = tmp_path / "metrics.jsonl"
    registry.write_jsonl(path)
    samples = MetricsRegistry.parse_jsonl(path.read_text())
    assert samples == registry.collect()
    by_metric = {}
    for sample in samples:
        by_metric.setdefault(sample["metric"], []).append(sample)
    assert sum(s["value"] for s in by_metric["moves_total"]) == 10
    assert by_metric["gain"][0]["count"] == 2


def test_empty_registry_exports_empty():
    registry = MetricsRegistry()
    assert registry.to_jsonl() == ""
    assert registry.collect() == []


def test_histogram_quantile_interpolates_within_buckets():
    hist = Histogram("lat", buckets=[1.0, 10.0, 100.0])
    for value in (2.0, 4.0, 6.0, 8.0):  # all inside the (1, 10] bucket
        hist.observe(value)
    # All mass in one bucket, edges clamped to observed [2, 8]: the p50
    # interpolation lands at the midpoint of the observed range.
    assert hist.quantile(0.5) == pytest.approx(5.0)
    assert hist.quantile(0.0) == 2.0
    assert hist.quantile(1.0) == 8.0


def test_histogram_quantile_spans_buckets_and_overflow():
    hist = Histogram("lat", buckets=[10.0, 100.0])
    for value in (1.0, 5.0, 50.0, 500.0):
        hist.observe(value)
    # p25 rank sits in the first bucket, p95 in the +Inf overflow, which
    # resolves to the observed max.
    assert 1.0 <= hist.quantile(0.25) <= 10.0
    assert hist.quantile(0.95) == 500.0
    assert hist.quantile(0.99) == 500.0


def test_histogram_quantile_edge_cases():
    hist = Histogram("lat", buckets=[1.0, 10.0])
    assert hist.quantile(0.5) is None  # empty series
    hist.observe(3.0)
    # A single observation returns itself at every quantile.
    assert hist.quantile(0.0) == 3.0
    assert hist.quantile(0.5) == 3.0
    assert hist.quantile(1.0) == 3.0
    assert hist.quantile(0.5, engine="other") is None  # unseen labels
    with pytest.raises(ValueError, match="quantile"):
        hist.quantile(1.5)


# ----------------------------------------------------------------------
# Quantile edge cases and offline sample quantiles
# ----------------------------------------------------------------------

def test_quantile_edges_with_all_mass_in_overflow():
    # Every observation above the top bound: only the implicit +Inf
    # bucket holds mass, yet q=0/q=1 still return the exact extremes.
    hist = Histogram("lat", buckets=[1.0, 10.0])
    for value in (50.0, 75.0, 200.0):
        hist.observe(value)
    assert hist.quantile(0.0) == 50.0
    assert hist.quantile(1.0) == 200.0
    assert 50.0 <= hist.quantile(0.5) <= 200.0


def test_quantile_single_bucket_histogram():
    hist = Histogram("lat", buckets=[10.0])
    for value in (2.0, 4.0, 6.0):
        hist.observe(value)
    assert hist.quantile(0.0) == 2.0
    assert hist.quantile(1.0) == 6.0
    assert 2.0 <= hist.quantile(0.5) <= 6.0


def test_sample_quantile_matches_histogram_quantile():
    from repro.obs.metrics import sample_quantile

    hist = Histogram("lat", buckets=[1.0, 10.0, 100.0])
    values = [0.5, 2.0, 3.0, 7.0, 20.0, 40.0, 90.0, 400.0]
    for value in values:
        hist.observe(value, op="query")
    (sample,) = hist.samples()
    for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0):
        assert sample_quantile(sample, q) == pytest.approx(
            hist.quantile(q, op="query")
        )


def test_sample_quantile_empty_and_validation():
    from repro.obs.metrics import sample_quantile

    empty = {"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {}}
    assert sample_quantile(empty, 0.5) is None
    with pytest.raises(ValueError, match="quantile"):
        sample_quantile(empty, -0.1)


def test_sample_quantile_survives_jsonl_round_trip():
    from repro.obs.metrics import sample_quantile

    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=[0.001, 0.01, 0.1])
    for value in (0.0005, 0.002, 0.004, 0.05):
        hist.observe(value, op="commit")
    (parsed,) = MetricsRegistry.parse_jsonl(registry.to_jsonl())
    assert sample_quantile(parsed, 0.95) == pytest.approx(
        hist.quantile(0.95, op="commit")
    )
