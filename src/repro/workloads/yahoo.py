"""Yahoo!-Music-like workload (paper section 7.4, second dataset).

The paper's second real-world dataset comes from the Yahoo! Webscope C15
music ratings corpus:

    "We use the same technique as in the IMDB dataset to build intervals
    around the number of voters and the average rating.  Many songs also
    have anonymized genre and artist identifiers.  These are discrete
    values.  The best matches are subscriptions with similar voting
    patterns, matching genres, and the same artist as an event."

The Webscope corpus requires a data-use agreement and is unavailable
offline, so this module generates a statistical twin with the properties
Table 2 records: an *average* of 5.4 attributes per record drawn from a
large, sparse attribute universe (paper: 22,202), mixing two interval
attributes (votes, rating) with discrete genre/artist attributes.

Concretely each record carries:

* ``votes`` and ``rating`` interval attributes (as in the IMDB twin);
* an ``artist`` discrete attribute — a Zipf-popular id out of
  ``artist_universe`` (present with probability ``artist_presence``);
* one or more ``genre_<id>`` presence attributes, Zipf-popular out of
  ``genre_universe``, the count shaped so the record's expected attribute
  total is ``5.4``.

Interval widths are calibrated to the dataset's selectivity of 0.11; the
discrete attributes provide a selectivity floor (genre collisions) that
is part of what the calibration accounts for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.attributes import AttributeKind, Interval, Schema
from repro.core.events import Event
from repro.core.subscriptions import Constraint, Subscription
from repro.workloads.calibration import bisect_width_scale, selectivity_of
from repro.workloads.defaults import YAHOO_SELECTIVITY
from repro.workloads.distributions import ZipfSampler, clipped_gauss, lognormal_int

__all__ = ["YahooWorkloadConfig", "YahooWorkload"]

VOTES, RATING, ARTIST = "votes", "rating", "artist"


@dataclass(frozen=True)
class YahooWorkloadConfig:
    """Parameters of the Yahoo!-Music-like workload."""

    n: int = 4_000
    selectivity: float = YAHOO_SELECTIVITY
    weight_low: float = 0.5
    weight_high: float = 2.0
    artist_universe: int = 20_000
    genre_universe: int = 2_200
    artist_presence: float = 0.8
    #: Genre count is 1 + Binomial(3, genre_extra_p): mean 1 + 3p.  With
    #: the defaults the expected attribute count is 2 (intervals) + 0.8
    #: (artist) + 1 + 3 * 0.533 = 5.4, matching Table 2.
    genre_extra_p: float = 0.5333
    votes_mu: float = 4.5
    votes_sigma: float = 1.8
    rating_mean: float = 3.2
    rating_sigma: float = 0.9
    zipf_exponent: float = 0.6
    seed: int = 2011  # Webscope C15's release era

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.selectivity < 1.0:
            raise ValueError(f"selectivity must be in (0, 1), got {self.selectivity}")
        if not 0.0 <= self.artist_presence <= 1.0:
            raise ValueError(f"artist_presence must be in [0, 1], got {self.artist_presence}")
        if not 0.0 <= self.genre_extra_p <= 1.0:
            raise ValueError(f"genre_extra_p must be in [0, 1], got {self.genre_extra_p}")

    @property
    def mean_attribute_count(self) -> float:
        """Expected M per record (Table 2 reports 5.4)."""
        return 2.0 + self.artist_presence + 1.0 + 3.0 * self.genre_extra_p


class YahooWorkload:
    """Deterministic generator of Yahoo!-Music-like subscriptions/events."""

    _CAL_SUBS = 300
    _CAL_EVENTS = 24

    def __init__(self, config: YahooWorkloadConfig) -> None:
        self.config = config
        self._artists = ZipfSampler(config.artist_universe, config.zipf_exponent)
        self._genres = ZipfSampler(config.genre_universe, config.zipf_exponent)
        self._width_scale = bisect_width_scale(
            self._estimate,
            config.selectivity,
            low=1e-3,
            high=16.0,
            infeasible_hint=(
                "raise genre_universe / lower zipf_exponent if the discrete "
                "floor is too high, or widen the interval cap."
            ),
        )

    @staticmethod
    def schema() -> Schema:
        """Schema for the fixed attributes; genre attributes pin lazily."""
        return Schema(
            {
                VOTES: AttributeKind.RANGE_DISCRETE,
                RATING: AttributeKind.RANGE_CONTINUOUS,
                ARTIST: AttributeKind.DISCRETE,
            }
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def subscriptions(self, count: Optional[int] = None, sid_offset: int = 0) -> List[Subscription]:
        """Generate subscriptions from the "subscription section" stream."""
        if count is None:
            count = self.config.n
        rng = random.Random(f"{self.config.seed}:yahoo:subs:{sid_offset}")
        return [
            self._subscription(rng, sid_offset + index, self._width_scale)
            for index in range(count)
        ]

    def events(self, count: int, stream: int = 0) -> List[Event]:
        """Generate events from the disjoint "event section" stream."""
        rng = random.Random(f"{self.config.seed}:yahoo:events:{stream}")
        return [self._event(rng, self._width_scale) for _ in range(count)]

    @property
    def width_scale(self) -> float:
        """Calibrated multiplier on the base interval half-widths."""
        return self._width_scale

    def measured_selectivity(self, subs: int = 500, events: int = 40) -> float:
        """Empirical S/N over a fresh sample."""
        rng = random.Random(f"{self.config.seed}:yahoo:measure")
        sample_subs = [self._subscription(rng, i, self._width_scale) for i in range(subs)]
        sample_events = [self._event(rng, self._width_scale) for _ in range(events)]
        return selectivity_of(sample_subs, sample_events)

    def mean_attributes_measured(self, sample: int = 2_000) -> float:
        """Empirical mean M over a sample (should approximate 5.4)."""
        rng = random.Random(f"{self.config.seed}:yahoo:meanm")
        total = sum(
            self._subscription(rng, i, self._width_scale).size for i in range(sample)
        )
        return total / sample

    # ------------------------------------------------------------------
    # Record synthesis
    # ------------------------------------------------------------------
    def _song_values(self, rng: random.Random, width_scale: float) -> Dict[str, Any]:
        """One song's attribute map (shared by subscriptions and events)."""
        config = self.config
        votes = lognormal_int(rng, config.votes_mu, config.votes_sigma)
        rating = clipped_gauss(rng, config.rating_mean, config.rating_sigma, 1.0, 5.0)

        votes_half = max(1, int(votes * 0.1 * width_scale))
        rating_half = 0.15 * width_scale
        values: Dict[str, Any] = {
            VOTES: Interval(max(1, votes - votes_half), votes + votes_half),
            RATING: Interval(max(1.0, rating - rating_half), min(5.0, rating + rating_half)),
        }
        if rng.random() < config.artist_presence:
            values[ARTIST] = f"artist-{self._artists.sample(rng)}"
        genre_count = 1 + sum(1 for _ in range(3) if rng.random() < config.genre_extra_p)
        genres = self._genres.sample_distinct(rng, min(genre_count, self._genres.size))
        for genre in genres:
            values[f"genre_{genre}"] = True
        return values

    def _subscription(self, rng: random.Random, sid: int, width_scale: float) -> Subscription:
        constraints = [
            Constraint(name, value, self._weight(rng))
            for name, value in self._song_values(rng, width_scale).items()
        ]
        return Subscription(sid, constraints)

    def _event(self, rng: random.Random, width_scale: float) -> Event:
        return Event(self._song_values(rng, width_scale))

    def _weight(self, rng: random.Random) -> float:
        return rng.uniform(self.config.weight_low, self.config.weight_high)

    def _estimate(self, width_scale: float) -> float:
        rng = random.Random(f"{self.config.seed}:yahoo:calibration")
        subs = [self._subscription(rng, i, width_scale) for i in range(self._CAL_SUBS)]
        events = [self._event(rng, width_scale) for _ in range(self._CAL_EVENTS)]
        return selectivity_of(subs, events)
