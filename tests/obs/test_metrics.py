"""The metrics registry: instruments, families, exposition round-trips."""

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prom_text,
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(12)
        assert gauge.value == 3.0


class TestHistogram:
    def test_bucket_assignment_and_cumulative(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 2, 1, 1]
        assert histogram.cumulative() == [(1.0, 1), (2.0, 3), (4.0, 4), (math.inf, 5)]
        assert histogram.count == 5
        assert histogram.min == 0.5
        assert histogram.max == 100.0

    def test_percentile_interpolates_and_clamps(self):
        histogram = Histogram(buckets=(10.0, 20.0, 30.0))
        for value in range(1, 101):  # 1..100, overflowing the last bound
            histogram.observe(float(value))
        assert histogram.percentile(0) == pytest.approx(1.0)
        # p50 lives in the +Inf bucket; interpolating between the last
        # bound (30) and the observed max (100) lands near the true 50.5.
        assert histogram.percentile(50) == pytest.approx(50.0, abs=5.0)
        # p25 falls inside the (20, 30] bucket.
        assert 20.0 <= histogram.percentile(25) <= 30.0
        # Estimates clamp to the observed max.
        assert histogram.percentile(99) <= 100.0
        assert histogram.percentile(100) == pytest.approx(100.0)

    def test_percentile_empty_is_zero(self):
        assert Histogram(buckets=(1.0,)).percentile(95) == 0.0

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(1.0,)).percentile(101)

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(2.0, 1.0))

    def test_snapshot_quantiles(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        snap = histogram.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(2.0)
        assert set(snap) >= {"p50", "p95", "p99", "min", "max", "mean"}


class TestMetricFamily:
    def test_labeled_children_are_distinct(self):
        registry = MetricsRegistry()
        ops = registry.counter("ops_total", "ops", labels=("op",))
        ops.labels(op="add").inc(3)
        ops.labels(op="cancel").inc()
        assert ops.labels(op="add").value == 3.0
        assert ops.value == 4.0  # sums across children

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        ops = registry.counter("ops_total", "ops", labels=("op",))
        with pytest.raises(ObservabilityError):
            ops.labels(kind="add")
        with pytest.raises(ObservabilityError):
            ops.labels()

    def test_unlabeled_proxy(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        assert registry.counter("hits_total").value == 1.0

    def test_histogram_value_property_rejected(self):
        registry = MetricsRegistry()
        latency = registry.histogram("seconds", "latency")
        with pytest.raises(ObservabilityError):
            latency.value

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad name")
        with pytest.raises(ObservabilityError):
            registry.counter("ok_total", labels=("bad-label",))


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x")
        second = registry.counter("x_total")
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total")

    def test_label_schema_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "", ("leaf",))
        with pytest.raises(ObservabilityError, match="labels"):
            registry.counter("repro_x_total", "", ("attribute",))
        # The same schema re-declared is the same family.
        assert registry.counter("repro_x_total", "", ("leaf",)) is registry.get(
            "repro_x_total"
        )

    def test_unknown_metric_raises(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().get("ghost")
        assert "ghost" not in MetricsRegistry()

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc()
        registry.gauge("b", "b").set(2)
        registry.histogram("c_seconds", "c", buckets=(1.0,)).observe(0.5)
        document = json.loads(json.dumps(registry.snapshot()))
        assert document["a_total"]["type"] == "counter"
        assert document["b"]["values"][0]["value"] == 2.0
        assert document["c_seconds"]["values"][0]["count"] == 1


class TestPromExposition:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("repro_matches_total", "matches served").inc(7)
        ops = registry.counter("repro_ops_total", "ops", labels=("op",))
        ops.labels(op="add").inc(3)
        ops.labels(op="cancel").inc(1)
        registry.gauge("repro_quarantined_leaves", "quarantined").set(2)
        latency = registry.histogram(
            "repro_match_seconds", "latency", buckets=(0.001, 0.01, 0.1)
        )
        for value in (0.0005, 0.005, 0.05, 0.5):
            latency.observe(value)
        return registry

    def test_text_format_structure(self):
        text = self.build().to_prom_text()
        assert "# HELP repro_matches_total matches served" in text
        assert "# TYPE repro_matches_total counter" in text
        assert "repro_matches_total 7" in text
        assert 'repro_ops_total{op="add"} 3' in text
        assert 'repro_match_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_match_seconds_count 4" in text

    def test_round_trip(self):
        registry = self.build()
        parsed = parse_prom_text(registry.to_prom_text())
        assert parsed["repro_matches_total"]["type"] == "counter"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parsed["repro_ops_total"]["samples"]
        }
        assert samples[("repro_ops_total", (("op", "add"),))] == 3.0
        assert samples[("repro_ops_total", (("op", "cancel"),))] == 1.0
        histogram = parsed["repro_match_seconds"]
        buckets = {
            labels["le"]: value
            for name, labels, value in histogram["samples"]
            if name.endswith("_bucket")
        }
        assert buckets["+Inf"] == 4.0
        assert buckets["0.001"] == 1.0

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("weird_total", "weird", labels=("tag",))
        family.labels(tag='quo"te\\slash').inc()
        parsed = parse_prom_text(registry.to_prom_text())
        (_, labels, value) = parsed["weird_total"]["samples"][0]
        assert labels["tag"] == 'quo"te\\slash'
        assert value == 1.0

    def test_hostile_label_value_round_trips(self):
        # Regression: unescaping with chained str.replace corrupted a
        # literal backslash followed by "n" — the 4-char escaped form
        # collapsed into a real newline.  The hostile value below mixes
        # every escapable character with that adjacent-escape trap.
        hostile = 'quo"te\\slash\nnewline\\nliteral\\\\double'
        registry = MetricsRegistry()
        family = registry.counter("hostile_total", "hostile", labels=("tag",))
        family.labels(tag=hostile).inc()
        text = registry.to_prom_text()
        # The exposition itself stays one sample line (no raw newline).
        sample_lines = [line for line in text.splitlines() if "hostile_total{" in line]
        assert len(sample_lines) == 1
        parsed = parse_prom_text(text)
        (_, labels, value) = parsed["hostile_total"]["samples"][0]
        assert labels["tag"] == hostile
        assert value == 1.0

    def test_malformed_line_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_prom_text("this is { not a metric\n")
        with pytest.raises(ObservabilityError):
            parse_prom_text("name_total not_a_number\n")
