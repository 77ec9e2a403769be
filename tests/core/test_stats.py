"""Running statistics and the instrumented matcher wrapper."""

import math
import statistics as stdlib_stats

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import Interval
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.stats import InstrumentedMatcher, MatcherStats, RunningStats
from repro.core.subscriptions import Constraint, Subscription


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    def test_single_sample(self):
        stats = RunningStats()
        stats.record(5.0)
        assert stats.count == 1
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.min == stats.max == 5.0

    def test_known_values(self):
        stats = RunningStats()
        for sample in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.record(sample)
        assert stats.mean == pytest.approx(5.0)
        assert stats.stddev == pytest.approx(2.0)
        assert stats.min == 2.0
        assert stats.max == 9.0

    def test_merge_equals_combined_stream(self):
        left = RunningStats()
        right = RunningStats()
        combined = RunningStats()
        for index in range(10):
            left.record(index)
            combined.record(index)
        for index in range(100, 120):
            right.record(index)
            combined.record(index)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.variance == pytest.approx(combined.variance)
        assert left.min == combined.min
        assert left.max == combined.max

    def test_merge_with_empty(self):
        stats = RunningStats()
        stats.record(1.0)
        stats.merge(RunningStats())
        assert stats.count == 1
        empty = RunningStats()
        empty.merge(stats)
        assert empty.mean == 1.0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=100))
def test_property_welford_matches_stdlib(samples):
    stats = RunningStats()
    for sample in samples:
        stats.record(sample)
    assert stats.mean == pytest.approx(stdlib_stats.fmean(samples), rel=1e-9, abs=1e-6)
    assert stats.variance == pytest.approx(
        stdlib_stats.pvariance(samples), rel=1e-6, abs=1e-3
    )


class TestInstrumentedMatcher:
    def build(self):
        wrapped = InstrumentedMatcher(FXTMMatcher(prorate=True))
        wrapped.add_subscription(
            Subscription("s1", [Constraint("a", Interval(0, 10), 2.0)])
        )
        wrapped.add_subscription(
            Subscription("s2", [Constraint("a", Interval(0, 10), 1.0)])
        )
        return wrapped

    def test_transparent_results(self):
        wrapped = self.build()
        plain = FXTMMatcher(prorate=True)
        plain.add_subscription(Subscription("s1", [Constraint("a", Interval(0, 10), 2.0)]))
        plain.add_subscription(Subscription("s2", [Constraint("a", Interval(0, 10), 1.0)]))
        event = Event({"a": 5})
        assert wrapped.match(event, 2) == plain.match(event, 2)

    def test_counters(self):
        wrapped = self.build()
        event = Event({"a": 5})
        for _ in range(4):
            wrapped.match(event, 1)
        wrapped.match(Event({"zzz": 1}), 1)  # no results
        wrapped.cancel_subscription("s2")
        stats = wrapped.stats
        assert stats.adds == 2
        assert stats.cancels == 1
        assert stats.matches == 5
        assert stats.empty_matches == 1
        assert stats.match_seconds.count == 5
        assert stats.results_returned.mean == pytest.approx(4 / 5)

    def test_match_batch_transparent_and_counted(self):
        wrapped = self.build()
        plain = FXTMMatcher(prorate=True)
        plain.add_subscription(Subscription("s1", [Constraint("a", Interval(0, 10), 2.0)]))
        plain.add_subscription(Subscription("s2", [Constraint("a", Interval(0, 10), 1.0)]))
        events = [Event({"a": 5}), Event({"a": 5}), Event({"zzz": 1})]
        batches = wrapped.match_batch(events, 2)
        assert batches == plain.match_batch(events, 2)
        stats = wrapped.stats
        assert stats.batch_events == 3
        assert stats.matches == 0  # batch events are counted separately
        assert stats.empty_matches == 1
        assert stats.results_returned.count == 3
        assert stats.serves_by_sid == {"s1": 2, "s2": 2}

    def test_match_batch_probe_cache_metrics(self):
        wrapped = self.build()
        wrapped.match_batch([Event({"a": 5})] * 4, 1)
        stats = wrapped.stats
        # One miss for the first probe of "a", three hits for the repeats.
        assert stats._probe_misses.value == 1
        assert stats._probe_hits.value == 3
        assert stats._probe_hit_ratio.value == pytest.approx(0.75)

    def test_probe_cache_gauge_resets_on_idle_batch(self):
        # Regression: the hit-ratio gauge documents "the last batch", so
        # a zero-probe batch (here: events touching no indexed
        # attribute) must drive it back to 0.0.  record_batch used to
        # skip the gauge entirely when cache.probes == 0, leaving the
        # previous batch's ratio exposed on an idle matcher.
        wrapped = self.build()
        wrapped.match_batch([Event({"a": 5})] * 4, 1)
        assert wrapped.stats._probe_hit_ratio.value == pytest.approx(0.75)
        wrapped.match_batch([Event({"zzz": 1})], 1)  # probes nothing
        assert wrapped.stats._probe_hit_ratio.value == 0.0
        # Cumulative counters are unaffected by the idle batch.
        assert wrapped.stats._probe_misses.value == 1
        assert wrapped.stats._probe_hits.value == 3

    def test_probe_cache_hit_ratio_defined_on_idle_cache(self):
        from repro.core.probecache import ProbeCache

        # The gauge path divides hits by probes; an idle matcher's cache
        # has zero of both and must report 0.0, not raise.
        assert ProbeCache().hit_ratio == 0.0
        stats = MatcherStats()
        stats.record_batch(0.0, [], ProbeCache())
        assert stats._probe_hit_ratio.value == 0.0

    def test_match_batch_traced(self):
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        wrapped = InstrumentedMatcher(FXTMMatcher(), tracer=tracer)
        wrapped.add_subscription(Subscription("s1", [Constraint("a", Interval(0, 10))]))
        wrapped.match_batch([Event({"a": 5})], 1)
        assert tracer.last_trace.name == "match_batch"
        assert tracer.last_trace.attributes["batch"] == 1

    def test_serves_by_sid(self):
        wrapped = self.build()
        for _ in range(3):
            wrapped.match(Event({"a": 5}), 2)
        assert wrapped.stats.serves_by_sid == {"s1": 3, "s2": 3}
        top = wrapped.stats.top_served(limit=1)
        assert top[0][1] == 3

    def test_serves_by_sid_stays_bounded_by_live_sids_under_churn(self):
        """A cancelled sid's serve count is dropped, so churning 1,000
        sids through the matcher leaves no key for a sid no longer live."""
        wrapped = self.build()
        for index in range(1000):
            sid = f"churn-{index}"
            wrapped.add_subscription(
                Subscription(sid, [Constraint("a", Interval(0, 10), 5.0)])
            )
            assert sid in {result.sid for result in wrapped.match(Event({"a": 5}), 1)}
            wrapped.cancel_subscription(sid)
        assert len(wrapped.stats.serves_by_sid) <= len(wrapped)
        assert set(wrapped.stats.serves_by_sid) <= {"s1", "s2"}
        assert wrapped.stats.snapshot()["distinct_sids_served"] <= len(wrapped)

    def test_update_keeps_the_live_sids_serve_count(self):
        wrapped = self.build()
        wrapped.match(Event({"a": 5}), 2)
        wrapped.update_subscription(
            Subscription("s1", [Constraint("a", Interval(0, 20), 2.0)])
        )
        assert wrapped.stats.serves_by_sid == {"s1": 1, "s2": 1}

    def test_snapshot_is_json_ready(self):
        import json

        wrapped = self.build()
        wrapped.match(Event({"a": 5}), 1)
        snapshot = wrapped.stats.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["matches"] == 1
        assert snapshot["match_ms_mean"] > 0

    def test_container_protocol_delegation(self):
        wrapped = self.build()
        assert len(wrapped) == 2
        assert "s1" in wrapped
        assert wrapped.name == "fx-tm"
        assert wrapped.get_subscription("s1").sid == "s1"
        assert wrapped.budget_tracker is None
        assert wrapped.schema is wrapped.inner.schema

    def test_empty_stats(self):
        stats = MatcherStats()
        assert stats.top_served() == []
        assert stats.snapshot()["match_ms_max"] == 0.0

    def test_snapshot_surfaces_latency_percentiles(self):
        wrapped = self.build()
        for _ in range(20):
            wrapped.match(Event({"a": 5}), 1)
        snapshot = wrapped.stats.snapshot()
        assert snapshot["match_ms_p50"] > 0
        assert snapshot["match_ms_p50"] <= snapshot["match_ms_p95"]
        assert snapshot["match_ms_p95"] <= snapshot["match_ms_p99"]
        # Quantile estimates stay within the exact Welford min/max.
        assert snapshot["match_ms_p99"] <= snapshot["match_ms_max"] * 1.0001

    def test_stats_backed_by_registry(self):
        wrapped = self.build()
        wrapped.match(Event({"a": 5}), 1)
        registry = wrapped.registry
        assert registry.get("repro_matches_total").value == 1.0
        ops = registry.get("repro_subscription_ops_total")
        assert ops.labels(op="add", algorithm="fx-tm", backend="python").value == 2.0
        latency = registry.get("repro_match_seconds").labels(
            algorithm="fx-tm", backend="python"
        )
        assert latency.count == 1
        assert "repro_matches_total" in registry.to_prom_text()

    def test_metrics_labeled_with_algorithm_and_backend(self):
        # Pins the label *set*: one shared registry distinguishes the
        # reference engine from the array engine (and its backend).
        from repro.core.array_matcher import ArrayTopKMatcher
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        reference = InstrumentedMatcher(FXTMMatcher(), registry=registry)
        array = InstrumentedMatcher(
            ArrayTopKMatcher(backend="python"), registry=registry
        )
        for wrapped in (reference, array):
            wrapped.add_subscription(
                Subscription(f"s-{wrapped.name}", [Constraint("a", Interval(0, 10))])
            )
            wrapped.match(Event({"a": 5}), 1)
        family = registry.get("repro_matches_total")
        assert family.label_names == ("algorithm", "backend")
        label_sets = {tuple(sorted(labels.items())) for labels, _ in family.children()}
        assert (("algorithm", "fx-tm"), ("backend", "python")) in label_sets
        assert (("algorithm", "fx-tm-array"), ("backend", "python")) in label_sets
        for labels, child in family.children():
            assert child.value == 1.0
        text = registry.to_prom_text()
        assert 'repro_matches_total{algorithm="fx-tm",backend="python"} 1' in text
        assert 'repro_matches_total{algorithm="fx-tm-array",backend="python"} 1' in text

    def test_shared_registry_across_matchers(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        first = InstrumentedMatcher(FXTMMatcher(), registry=registry)
        second = InstrumentedMatcher(FXTMMatcher(), registry=registry)
        first.add_subscription(Subscription("s", [Constraint("a", Interval(0, 10))]))
        first.match(Event({"a": 5}), 1)
        second.match(Event({"a": 5}), 1)
        # Both wrappers share one scrape surface.
        assert registry.get("repro_matches_total").value == 2.0

    def test_tracer_attached_to_inner_matcher(self):
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        wrapped = InstrumentedMatcher(FXTMMatcher(prorate=True), tracer=tracer)
        wrapped.add_subscription(Subscription("s", [Constraint("a", Interval(0, 10))]))
        wrapped.match(Event({"a": 5}), 1)
        trace = tracer.last_trace
        assert trace.name == "match"
        # FX-TM's pipeline spans nest beneath the wrapper's match span.
        assert trace.find("fxtm.match")
        assert trace.find("topk.select")
