"""IMDB-like and Yahoo!-like statistical twins."""

import pytest

from repro.core.attributes import AttributeKind, Interval
from repro.workloads.imdb import IMDBWorkload, IMDBWorkloadConfig
from repro.workloads.yahoo import YahooWorkload, YahooWorkloadConfig


@pytest.fixture(scope="module")
def imdb():
    return IMDBWorkload(IMDBWorkloadConfig(n=300))


@pytest.fixture(scope="module")
def yahoo():
    return YahooWorkload(YahooWorkloadConfig(n=300))


class TestIMDB:
    def test_every_record_has_exactly_three_attributes(self, imdb):
        """Table 2: M = 3 out of 3 for IMDB."""
        for sub in imdb.subscriptions(count=50):
            assert sub.attributes == ("votes", "rating", "year")
        for event in imdb.events(20):
            assert set(event.attributes) == {"votes", "rating", "year"}

    def test_schema_kinds(self):
        schema = IMDBWorkload.schema()
        assert schema.kind_of("votes") is AttributeKind.RANGE_DISCRETE
        assert schema.kind_of("rating") is AttributeKind.RANGE_CONTINUOUS
        assert schema.kind_of("year") is AttributeKind.RANGE_DISCRETE

    def test_value_ranges(self, imdb):
        config = imdb.config
        for sub in imdb.subscriptions(count=50):
            votes = sub.constraint_on("votes").interval()
            rating = sub.constraint_on("rating").interval()
            year = sub.constraint_on("year").interval()
            assert votes.low >= 1
            assert 1.0 <= rating.low <= rating.high <= 10.0
            assert config.year_low <= year.low <= year.high <= config.year_high

    def test_positive_weights(self, imdb):
        for sub in imdb.subscriptions(count=50):
            assert all(c.weight > 0 for c in sub.constraints)

    def test_selectivity_near_table2(self, imdb):
        assert imdb.measured_selectivity() == pytest.approx(0.14, abs=0.05)

    def test_subscriptions_and_events_from_disjoint_sections(self, imdb):
        """Paper: 'generated the same way from different sections'."""
        subs = imdb.subscriptions(count=20)
        events = imdb.events(20)
        sub_votes = {s.constraint_on("votes").interval() for s in subs}
        event_votes = {e.interval_of("votes") for e in events}
        assert sub_votes != event_votes

    def test_determinism(self):
        a = IMDBWorkload(IMDBWorkloadConfig(n=50))
        b = IMDBWorkload(IMDBWorkloadConfig(n=50))
        assert a.subscriptions() == b.subscriptions()
        assert a.events(5) == b.events(5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IMDBWorkloadConfig(n=0)
        with pytest.raises(ValueError):
            IMDBWorkloadConfig(selectivity=0.0)
        with pytest.raises(ValueError):
            IMDBWorkloadConfig(year_low=2020, year_high=2000)


class TestYahoo:
    def test_mean_attribute_count_near_table2(self, yahoo):
        """Table 2: M averages 5.4 for the Yahoo! data."""
        assert yahoo.config.mean_attribute_count == pytest.approx(5.4, abs=0.01)
        assert yahoo.mean_attributes_measured() == pytest.approx(5.4, abs=0.3)

    def test_schema_kinds(self):
        schema = YahooWorkload.schema()
        assert schema.kind_of("votes") is AttributeKind.RANGE_DISCRETE
        assert schema.kind_of("rating") is AttributeKind.RANGE_CONTINUOUS
        assert schema.kind_of("artist") is AttributeKind.DISCRETE

    def test_mixes_interval_and_discrete_attributes(self, yahoo):
        for sub in yahoo.subscriptions(count=30):
            kinds = {c.attribute.split(":")[0] for c in sub.constraints}
            assert "votes" in kinds and "rating" in kinds
            assert any(c.attribute.startswith("genre_") for c in sub.constraints)

    def test_rendered_requests_parse_back(self):
        """Every generated name is one the request grammar accepts."""
        from repro.core.parser import (
            parse_event,
            parse_subscription,
            render_event,
            render_subscription,
        )

        workload = YahooWorkload(YahooWorkloadConfig(n=200))
        for sub in workload.subscriptions():
            parsed = parse_subscription(sub.sid, render_subscription(sub))
            assert [(c.attribute, c.weight) for c in parsed.constraints] == [
                (c.attribute, c.weight) for c in sub.constraints
            ]
        for event in workload.events(200):
            parsed = parse_event(render_event(event))
            assert parsed.attributes == event.attributes
            assert [parsed.weight_for(name) for name in parsed.attributes] == [
                event.weight_for(name) for name in event.attributes
            ]

    def test_artist_presence_rate(self, yahoo):
        subs = yahoo.subscriptions(count=400)
        with_artist = sum(1 for s in subs if s.constraint_on("artist") is not None)
        assert with_artist / len(subs) == pytest.approx(0.8, abs=0.08)

    def test_rating_bounds(self, yahoo):
        for sub in yahoo.subscriptions(count=30):
            rating = sub.constraint_on("rating").interval()
            assert 1.0 <= rating.low <= rating.high <= 5.0

    def test_selectivity_near_table2(self, yahoo):
        assert yahoo.measured_selectivity() == pytest.approx(0.11, abs=0.05)

    def test_determinism(self):
        a = YahooWorkload(YahooWorkloadConfig(n=40))
        b = YahooWorkload(YahooWorkloadConfig(n=40))
        assert a.subscriptions() == b.subscriptions()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            YahooWorkloadConfig(n=0)
        with pytest.raises(ValueError):
            YahooWorkloadConfig(artist_presence=1.5)
        with pytest.raises(ValueError):
            YahooWorkloadConfig(genre_extra_p=-0.1)

    def test_loadable_into_matcher(self, yahoo):
        from repro.core.matcher import FXTMMatcher

        matcher = FXTMMatcher(schema=yahoo.schema(), prorate=True)
        for sub in yahoo.subscriptions(count=100):
            matcher.add_subscription(sub)
        events = yahoo.events(5)
        for event in events:
            matcher.match(event, k=5)  # must not raise
