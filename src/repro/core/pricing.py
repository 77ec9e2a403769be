"""Dynamic pricing: the paper's second future-work bullet.

    "We are considering ... creating dynamic pricing models to adjust the
    price paid per match on the fly based on demand." (paper section 8)

This module implements that idea on top of the existing budget machinery:

* :class:`ExponentialMovingRate` — an EWMA estimate of how many auctions
  (match requests) arrive per time unit;
* :class:`DemandBasedPricer` — a constant-elasticity price curve
  ``price = base x (demand / reference)^elasticity``, clamped to
  configured bounds: prices rise when auctions arrive faster than the
  reference rate and fall in quiet periods;
* :class:`PricedExchange` — a matcher front-end that runs the auction,
  prices it, and has the matcher charge each *winner's* budget the current
  price (``match(..., cost=price)``) instead of the flat 1.0.  Campaign pacing
  (Definition 4) then automatically responds to price changes: expensive
  periods consume budget faster, dropping the multiplier and cooling the
  campaign exactly when demand is hot.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from repro.core.budget import Clock
from repro.core.events import Event
from repro.core.interfaces import TopKMatcher
from repro.core.results import MatchResult
from repro.core.subscriptions import Subscription
from repro.errors import ReproError

__all__ = ["PricingError", "ExponentialMovingRate", "DemandBasedPricer", "PricedExchange"]


class PricingError(ReproError):
    """Invalid pricing configuration."""


class ExponentialMovingRate:
    """EWMA of event arrivals per time unit.

    Each :meth:`observe` records one arrival at the current clock time;
    the estimated rate decays with half-life ``half_life`` time units, so
    a burst of auctions raises the estimate quickly and quiet periods let
    it relax toward zero.
    """

    __slots__ = ("clock", "half_life", "_rate", "_last_time")

    def __init__(self, clock: Clock, half_life: float = 100.0) -> None:
        if half_life <= 0:
            raise PricingError(f"half_life must be positive, got {half_life}")
        self.clock = clock
        self.half_life = half_life
        self._rate = 0.0
        self._last_time: Optional[float] = None

    def observe(self, count: float = 1.0) -> None:
        """Record ``count`` arrivals at the current time."""
        if count < 0:
            raise PricingError(f"count must be >= 0, got {count}")
        now = self.clock.now()
        contribution = count * math.log(2) / self.half_life
        if self._last_time is None:
            self._last_time = now
            self._rate = contribution
            return
        elapsed = max(0.0, now - self._last_time)
        decay = 0.5 ** (elapsed / self.half_life)
        # Decay the old estimate, then add this arrival scaled so that a
        # steady stream of r arrivals per time unit converges to rate r:
        # the fixed point of x = x*2^(-1/(rH)) + r*ln2/H is x -> r as
        # H grows, within ~3% already at H = 10.
        self._rate = self._rate * decay + contribution
        self._last_time = now

    @property
    def rate(self) -> float:
        """The current arrivals-per-time-unit estimate (decayed to now)."""
        if self._last_time is None:
            return 0.0
        elapsed = max(0.0, self.clock.now() - self._last_time)
        return self._rate * (0.5 ** (elapsed / self.half_life))


class DemandBasedPricer:
    """Constant-elasticity per-match pricing.

    ``price = base_price x (observed_rate / reference_rate) ** elasticity``
    clamped into ``[min_price, max_price]``.  Elasticity 0 is flat
    pricing; 1 makes price proportional to demand.
    """

    __slots__ = (
        "base_price",
        "reference_rate",
        "elasticity",
        "min_price",
        "max_price",
        "demand",
    )

    def __init__(
        self,
        clock: Clock,
        base_price: float = 1.0,
        reference_rate: float = 1.0,
        elasticity: float = 0.5,
        min_price: float = 0.1,
        max_price: float = 10.0,
        half_life: float = 100.0,
    ) -> None:
        if base_price <= 0:
            raise PricingError(f"base_price must be positive, got {base_price}")
        if reference_rate <= 0:
            raise PricingError(f"reference_rate must be positive, got {reference_rate}")
        if elasticity < 0:
            raise PricingError(f"elasticity must be >= 0, got {elasticity}")
        if not 0 < min_price <= max_price:
            raise PricingError(
                f"need 0 < min_price <= max_price, got [{min_price}, {max_price}]"
            )
        self.base_price = base_price
        self.reference_rate = reference_rate
        self.elasticity = elasticity
        self.min_price = min_price
        self.max_price = max_price
        self.demand = ExponentialMovingRate(clock, half_life=half_life)

    def observe_auction(self) -> None:
        """Record one auction (one match request) toward the demand rate."""
        self.demand.observe()

    def current_price(self) -> float:
        """The clamped per-match price implied by current demand."""
        rate = self.demand.rate
        if rate <= 0.0:
            return self.min_price
        raw = self.base_price * math.pow(rate / self.reference_rate, self.elasticity)
        if raw < self.min_price:
            return self.min_price
        if raw > self.max_price:
            return self.max_price
        return raw


class PricedExchange:
    """A matcher front-end that prices every auction and charges winners.

    The inner matcher needs a ``budget_tracker``; each auction passes the
    current price as the matcher's per-winner ``cost``, so spend is
    settled by the matcher itself.  Any matcher surface works, wrapped
    ones included (:class:`~repro.core.stats.InstrumentedMatcher`,
    :class:`~repro.core.concurrent.ThreadSafeMatcher`, whose lock then
    covers the priced match).

    >>> from repro import FXTMMatcher, BudgetTracker, LogicalClock
    >>> clock = LogicalClock()
    >>> tracker = BudgetTracker(clock=clock)
    >>> exchange = PricedExchange(FXTMMatcher(budget_tracker=tracker),
    ...                           DemandBasedPricer(clock))
    """

    def __init__(self, matcher: TopKMatcher, pricer: DemandBasedPricer) -> None:
        if matcher.budget_tracker is None:
            raise PricingError(
                "PricedExchange needs a matcher with a budget tracker; "
                "without budgets there is nothing to charge"
            )
        self.matcher = matcher
        self.pricer = pricer
        self.revenue = 0.0
        self.auctions = 0
        #: (time, price) samples, one per auction — for dashboards/tests.
        self.price_history: List[Tuple[int, float]] = []

    def match(self, event: Event, k: int) -> List[MatchResult]:
        """Run one priced auction.

        The inner matcher computes the top-k with budget multipliers as
        usual and charges each winner the current dynamic price.
        """
        tracker = self.matcher.budget_tracker
        assert tracker is not None
        self.pricer.observe_auction()
        price = self.pricer.current_price()
        self.auctions += 1
        self.price_history.append((tracker.clock.now(), price))

        results = self.matcher.match(event, k, cost=price)
        # One addition per winner, the same sum the tracker's spend makes.
        for _result in results:
            self.revenue += price
        return results

    def add_subscription(self, subscription: Subscription) -> None:
        self.matcher.add_subscription(subscription)

    def cancel_subscription(self, sid: Any) -> Subscription:
        return self.matcher.cancel_subscription(sid)

    def __len__(self) -> int:
        return len(self.matcher)

    @property
    def mean_price(self) -> float:
        """Average clearing price across all auctions so far."""
        if not self.price_history:
            return 0.0
        return sum(price for _t, price in self.price_history) / len(self.price_history)
