"""Per-attribute heat accounting and the WorkloadProfile.

The acceptance scenario: a seeded, skewed workload run through a
heat-attached matcher must produce a :class:`WorkloadProfile` that names
the planted hot attribute first, and the per-attribute probe counts in
the profile must reconcile exactly (``==``) with the mirrored
``repro_heat_*`` registry counters — for both engines.
"""

import pytest

from repro import ArrayTopKMatcher, Constraint, Event, FXTMMatcher, Interval, Subscription
from repro.errors import ObservabilityError
from repro.obs.heat import AttributeHeat, HeatMonitor, RegionHistogram, WorkloadProfile
from repro.obs.metrics import MetricsRegistry


class TestRegionHistogram:
    def test_counts_anchor_at_first_value(self):
        histogram = RegionHistogram(max_bins=8, initial_width=10.0)
        histogram.observe(100.0)
        histogram.observe(105.0)
        histogram.observe(115.0)
        regions = histogram.regions()
        assert regions[0] == (100.0, 110.0, 2)
        assert regions[1] == (110.0, 120.0, 1)
        assert histogram.total == 3

    def test_rescale_keeps_bins_bounded_and_total_exact(self):
        histogram = RegionHistogram(max_bins=4, initial_width=1.0)
        for value in range(64):
            histogram.observe(float(value))
        assert len(histogram.counts) <= 4
        assert histogram.total == 64
        # 64 unit-width observations into <= 4 bins forces width 16.
        assert histogram.width == 16.0

    def test_regions_hottest_first_with_stable_ties(self):
        histogram = RegionHistogram(max_bins=8, initial_width=1.0)
        histogram.observe(0.5, count=3)
        histogram.observe(5.5, count=3)
        histogram.observe(2.5, count=7)
        regions = histogram.regions(limit=2)
        assert regions[0][2] == 7
        # Equal counts order by low bound (bins anchor at the first value).
        assert regions[1] == (0.5, 1.5, 3)

    def test_negative_values_bin_consistently(self):
        histogram = RegionHistogram(max_bins=4, initial_width=1.0)
        histogram.observe(0.0)
        histogram.observe(-0.5)
        (low, high, count) = histogram.regions()[0]
        assert count >= 1
        assert low <= -0.5 < high or low <= 0.0 < high

    def test_validation(self):
        with pytest.raises(ObservabilityError):
            RegionHistogram(max_bins=1)
        with pytest.raises(ObservabilityError):
            RegionHistogram(initial_width=0.0)


class TestAttributeHeat:
    def test_derived_ratios(self):
        heat = AttributeHeat("price", "ranged")
        heat.probes = 4
        heat.candidates = 6
        heat.scanned = 24
        heat.blocks_skipped = 3
        heat.blocks_total = 12
        heat.cache_hits = 9
        heat.cache_misses = 1
        assert heat.candidate_yield == pytest.approx(0.25)
        assert heat.skip_efficiency == pytest.approx(0.25)
        assert heat.cache_hit_ratio == pytest.approx(0.9)

    def test_ratios_degenerate_cases(self):
        heat = AttributeHeat("state", "discrete")
        # Discrete probes never scan: yield defaults to perfect.
        assert heat.candidate_yield == 1.0
        assert heat.skip_efficiency == 0.0
        assert heat.cache_hit_ratio == 0.0

    def test_to_json_shape(self):
        heat = AttributeHeat("price", "ranged")
        heat.probes = 1
        heat.regions.observe(42.0)
        document = heat.to_json()
        assert document["attribute"] == "price"
        assert document["kind"] == "ranged"
        assert document["hot_regions"][0]["count"] == 1


class TestHeatMonitor:
    def test_snapshot_ranks_by_probes_then_candidates(self):
        monitor = HeatMonitor()
        for _ in range(5):
            monitor.record_probe("hot", "ranged", candidates=1)
        monitor.record_probe("warm", "ranged", candidates=100)
        monitor.record_probe("cold", "discrete", candidates=0)
        profile = monitor.snapshot()
        assert profile.hot_attributes() == ["hot", "warm", "cold"]
        assert profile.get("hot").probes == 5
        assert profile.get("missing") is None

    def test_registry_mirrors_increment_in_lockstep(self):
        registry = MetricsRegistry()
        monitor = HeatMonitor(registry=registry)
        monitor.record_probe(
            "price", "ranged", candidates=3, scanned=10, blocks_skipped=2, blocks_total=4
        )
        monitor.record_probe("price", "ranged", candidates=1, scanned=2)
        monitor.record_cache("price", "ranged", hit=True)
        monitor.record_cache("price", "ranged", hit=False)
        labels = registry.get("repro_heat_probes_total").labels(attribute="price")
        assert labels.value == 2.0
        assert (
            registry.get("repro_heat_candidates_total").labels(attribute="price").value
            == 4.0
        )
        assert (
            registry.get("repro_heat_scanned_total").labels(attribute="price").value
            == 12.0
        )
        assert (
            registry.get("repro_heat_blocks_skipped_total")
            .labels(attribute="price")
            .value
            == 2.0
        )
        assert (
            registry.get("repro_heat_cache_hits_total").labels(attribute="price").value
            == 1.0
        )
        assert (
            registry.get("repro_heat_cache_misses_total").labels(attribute="price").value
            == 1.0
        )

    def test_reset_drops_aggregates_but_registry_keeps_counting(self):
        registry = MetricsRegistry()
        monitor = HeatMonitor(registry=registry)
        monitor.record_probe("price", "ranged", candidates=1)
        monitor.reset()
        assert len(monitor) == 0
        assert monitor.snapshot().attributes == []
        # Prometheus counters are cumulative by contract: they survive.
        assert (
            registry.get("repro_heat_probes_total").labels(attribute="price").value
            == 1.0
        )

    def test_validation(self):
        with pytest.raises(ObservabilityError):
            HeatMonitor(max_regions=1)

    def test_empty_profile_renders(self):
        assert HeatMonitor().snapshot().render() == "(no heat recorded)"
        assert WorkloadProfile([]).to_json()["hot_attributes"] == []


def skewed_subscriptions():
    """Subscriptions over one planted-hot and two colder attributes."""
    subs = []
    for index in range(8):
        subs.append(
            Subscription(
                f"hot-{index}",
                [Constraint("price", Interval(index * 10, index * 10 + 50), 1.0)],
            )
        )
    for index in range(4):
        subs.append(
            Subscription(
                f"warm-{index}",
                [Constraint("age", Interval(18, 65), 1.0)],
            )
        )
    subs.append(Subscription("cold-0", [Constraint("state", "Indiana", 1.0)]))
    return subs


def skewed_events():
    """Events heavily skewed toward the ``price`` attribute."""
    events = [Event({"price": 10 * index}) for index in range(12)]
    events.extend(Event({"price": 42, "age": 30}) for _ in range(3))
    events.append(Event({"price": 42, "age": 30, "state": "Indiana"}))
    return events


@pytest.mark.parametrize("engine", [FXTMMatcher, ArrayTopKMatcher])
class TestSkewedWorkloadAcceptance:
    def test_profile_names_planted_hot_attribute_first(self, engine):
        matcher = engine(heat=HeatMonitor())
        for subscription in skewed_subscriptions():
            matcher.add_subscription(subscription)
        for event in skewed_events():
            matcher.match(event, k=3)
        profile = matcher.heat.snapshot()
        assert profile.hot_attributes()[0] == "price"
        assert profile.hot_attributes() == ["price", "age", "state"]
        # Every event carries price: one probe per event.
        assert profile.get("price").probes == len(skewed_events())
        assert profile.get("age").probes == 4
        assert profile.get("state").probes == 1
        assert profile.get("price").kind == "ranged"
        assert profile.get("state").kind == "discrete"
        # The ranged scans actually examined entries.
        assert profile.get("price").scanned >= profile.get("price").candidates
        # Query regions were recorded for the ranged attributes.
        assert profile.get("price").regions.total == len(skewed_events())

    def test_probe_counts_reconcile_exactly_with_registry(self, engine):
        registry = MetricsRegistry()
        matcher = engine(heat=HeatMonitor(registry=registry))
        for subscription in skewed_subscriptions():
            matcher.add_subscription(subscription)
        for event in skewed_events():
            matcher.match(event, k=3)
        profile = matcher.heat.snapshot()
        probes = registry.get("repro_heat_probes_total")
        candidates = registry.get("repro_heat_candidates_total")
        for heat in profile.attributes:
            assert probes.labels(attribute=heat.attribute).value == heat.probes
            if heat.candidates:
                assert (
                    candidates.labels(attribute=heat.attribute).value
                    == heat.candidates
                )
        # The scrape-side total equals the profile-side total too.
        assert probes.value == sum(heat.probes for heat in profile.attributes)

    def test_heat_accounting_does_not_change_results(self, engine):
        plain = engine()
        heated = engine(heat=HeatMonitor())
        for subscription in skewed_subscriptions():
            plain.add_subscription(subscription)
            heated.add_subscription(subscription)
        for event in skewed_events():
            assert plain.match(event, k=3) == heated.match(event, k=3)

    def test_batch_cache_heat_records_hits_and_misses(self, engine):
        matcher = engine(heat=HeatMonitor())
        for subscription in skewed_subscriptions():
            matcher.add_subscription(subscription)
        # Identical events share probe-cache entries within one batch.
        events = [Event({"price": 42, "age": 30}) for _ in range(4)]
        matcher.match_batch(events, k=3)
        profile = matcher.heat.snapshot()
        price = profile.get("price")
        assert price.cache_misses == 1
        assert price.cache_hits == 3
        assert price.cache_hit_ratio == pytest.approx(0.75)
        assert price.probes == 1  # only the miss actually stabbed

    def test_batch_and_single_probe_totals_reconcile(self, engine):
        registry = MetricsRegistry()
        matcher = engine(heat=HeatMonitor(registry=registry))
        for subscription in skewed_subscriptions():
            matcher.add_subscription(subscription)
        matcher.match_batch(skewed_events(), k=3)
        profile = matcher.heat.snapshot()
        probes = registry.get("repro_heat_probes_total")
        for heat in profile.attributes:
            assert probes.labels(attribute=heat.attribute).value == heat.probes


def heat_profile(factory, traced, batched):
    """The skewed workload's heat document from one engine configuration."""
    from repro.obs.tracing import Tracer

    matcher = factory()
    matcher.heat = HeatMonitor()
    if traced:
        matcher.tracer = Tracer()
    for subscription in skewed_subscriptions():
        matcher.add_subscription(subscription)
    if batched:
        matcher.match_batch(skewed_events(), k=3)
    else:
        for event in skewed_events():
            matcher.match(event, k=3)
    return matcher.heat.snapshot().to_json()


def _array_numpy():
    from repro.structures.soa import numpy_available

    if not numpy_available():
        pytest.skip("numpy backend unavailable")
    return ArrayTopKMatcher(backend="numpy")


class TestHeatIsOneAccounting:
    """Tracing, engine and backend never change what heat records."""

    @pytest.mark.parametrize("batched", [False, True], ids=["match", "match_batch"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "factory",
        [FXTMMatcher, lambda: ArrayTopKMatcher(backend="python"), _array_numpy],
        ids=["fx-tm", "fx-tm-array-python", "fx-tm-array-numpy"],
    )
    def test_profile_equals_untraced_reference(self, factory, traced, batched):
        expected = heat_profile(FXTMMatcher, traced=False, batched=batched)
        assert expected["attributes"][0]["scanned"] > 0
        assert heat_profile(factory, traced, batched) == expected


class TestTracedHeatCombination:
    def test_heat_records_under_tracing_too(self):
        from repro.obs.tracing import Tracer

        matcher = FXTMMatcher(heat=HeatMonitor())
        matcher.tracer = Tracer()
        for subscription in skewed_subscriptions():
            matcher.add_subscription(subscription)
        matcher.match(Event({"price": 42, "age": 30}), k=3)
        profile = matcher.heat.snapshot()
        assert profile.get("price").probes == 1
        assert profile.get("age").probes == 1
        assert matcher.tracer.last_trace.find("attribute.probe")


class TestRegionMirror:
    """record_region mirrors into the registry like every other recorder,
    so snapshot and scrape surfaces reconcile."""

    def test_record_region_mirrors_into_registry(self):
        registry = MetricsRegistry()
        monitor = HeatMonitor(registry=registry)
        monitor.record_region("price", 10.0, 20.0)
        monitor.record_region("price", 30.0, 40.0)
        monitor.record_region("age", 18.0, 24.0)
        family = registry.get("repro_heat_region_observations_total")
        assert family.labels(attribute="price").value == 2.0
        assert family.labels(attribute="age").value == 1.0
        # The registry count equals the in-memory histogram total exactly.
        profile = monitor.snapshot()
        assert profile.get("price").regions.total == 2
        assert profile.get("age").regions.total == 1

    def test_unmirrored_monitor_still_records_regions(self):
        monitor = HeatMonitor()
        monitor.record_region("price", 10.0, 20.0)
        assert monitor.snapshot().get("price").regions.total == 1


#: Each AttributeHeat counter -> the ``repro_heat_*`` family mirroring it
#: (``regions`` mirrors its histogram's observation total).
HEAT_MIRRORS = {
    "probes": "repro_heat_probes_total",
    "candidates": "repro_heat_candidates_total",
    "scanned": "repro_heat_scanned_total",
    "blocks_skipped": "repro_heat_blocks_skipped_total",
    "blocks_total": "repro_heat_blocks_total",
    "cache_hits": "repro_heat_cache_hits_total",
    "cache_misses": "repro_heat_cache_misses_total",
    "regions": "repro_heat_region_observations_total",
}


def heat_count(heat, field):
    value = getattr(heat, field)
    return value.total if isinstance(value, RegionHistogram) else value


def narrow_subscriptions():
    """Enough short price intervals that high queries skip whole blocks."""
    return [
        Subscription(f"narrow-{index}", [Constraint("price", Interval(index, index + 1), 0.5)])
        for index in range(300)
    ]


class TestHeatMirrorsReconcile:
    """Every in-memory heat counter equals its registry mirror, for both
    engines, over single matches and a probe-cached batch."""

    def test_table_covers_every_counter_field(self):
        assert set(HEAT_MIRRORS) == set(AttributeHeat.__slots__) - {"attribute", "kind"}

    @pytest.mark.parametrize("engine", [FXTMMatcher, ArrayTopKMatcher])
    def test_every_counter_equals_its_mirror(self, engine):
        registry = MetricsRegistry()
        matcher = engine(heat=HeatMonitor(registry=registry))
        for subscription in skewed_subscriptions() + narrow_subscriptions():
            matcher.add_subscription(subscription)
        for event in skewed_events():
            matcher.match(event, k=3)
        cached = [Event({"price": 290, "age": 30, "state": "Indiana"})] * 3
        matcher.match_batch(skewed_events() + cached, k=3)
        profile = matcher.heat.snapshot()
        for heat in profile.attributes:
            for field, metric in HEAT_MIRRORS.items():
                mirror = registry.get(metric).labels(attribute=heat.attribute).value
                assert mirror == heat_count(heat, field), (heat.attribute, field)
        # The stream exercised every counter, so no mirror agrees by zero.
        for field in HEAT_MIRRORS:
            assert heat_count(profile.get("price"), field) > 0, field


class TestHeatUnderChurn:
    """Writes between matches keep fx-tm's heat equal to fx-tm-array's.

    fx-tm patches its flat stab view on each write instead of rebuilding
    it; the skip-table counts heat reads off it must stay those of a
    fresh build, which ``fx-tm-array`` (python backend) reports too.  The
    trees grow past several 64-entry skip blocks, so a patched block
    maximum that drifted from a rebuild would change ``blocks_skipped``.
    """

    @staticmethod
    def churn_profile(matcher):
        import random

        rng = random.Random(0xC4A2)
        live = []
        for step in range(1000):
            roll = rng.random()
            if roll < 0.55 or len(live) < 8:
                low = rng.randint(0, 900)
                sid = f"s{step}"
                matcher.add_subscription(
                    Subscription(
                        sid,
                        [
                            Constraint("price", Interval(low, low + rng.randint(0, 80)), 1.0),
                            Constraint("age", Interval(rng.randint(18, 40), rng.randint(40, 70)), 0.5),
                        ],
                    )
                )
                live.append(sid)
            elif roll < 0.7:
                matcher.cancel_subscription(live.pop(rng.randrange(len(live))))
            else:
                matcher.match(Event({"price": rng.randint(0, 1000), "age": rng.randint(10, 80)}), k=5)
        return matcher.heat.snapshot().to_json()

    def test_interleaved_writes_keep_engines_heat_equal(self):
        reference = self.churn_profile(FXTMMatcher(heat=HeatMonitor()))
        array = self.churn_profile(ArrayTopKMatcher(backend="python", heat=HeatMonitor()))
        price = next(row for row in reference["attributes"] if row["attribute"] == "price")
        assert price["blocks_skipped"] > 0
        assert reference == array
