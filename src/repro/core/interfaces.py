"""The common matcher interface shared by FX-TM and every baseline.

The paper's local implementation exposes "its own API for managing
subscriptions and issuing top-k matching requests and is interchangeable"
(section 6.1).  :class:`TopKMatcher` is that API: the controller, the
distributed overlay, the benchmarks, and the tests all program against it,
which is what makes the four algorithms drop-in comparable.

The base class also centralises the budget-window bookkeeping that is
identical across algorithms — charging winners and advancing the logical
clock "between matching iterations" (paper section 7.7) — so each concrete
matcher only implements the score computation itself.

:class:`MatcherProxy` is the base of the wrappers that decorate a matcher
(statistics, locking): it forwards that same API, member by member, so a
wrapper overrides only what it adds and wrappers stack in either order.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.attributes import Schema
from repro.core.budget import BudgetTracker, LogicalClock
from repro.core.events import Event
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult
from repro.core.scoring import SUM, Aggregation
from repro.core.subscriptions import Subscription
from repro.errors import DuplicateSubscriptionError, UnknownSubscriptionError

__all__ = ["TopKMatcher", "MatcherProxy"]


class TopKMatcher(abc.ABC):
    """Abstract weighted partial top-k matcher.

    Parameters common to all implementations:

    * ``schema`` — attribute kind registry (grown lazily when omitted);
    * ``prorate`` — enable Definition 2's prorated scoring;
    * ``aggregation`` — the sub-score aggregation (default summation);
    * ``budget_tracker`` — enables Definition 4's dynamic multiplier when
      provided; winners are charged one budget unit per served match and
      the tracker's logical clock (if it is one) ticks once per match
      iteration;
    * ``include_nonpositive`` — Definition 3 only admits scores > 0; set
      this to also return zero/negative-scored matches when fewer than k
      positive ones exist;
    * ``tracer`` — a :class:`repro.obs.tracing.Tracer` recording match
      pipeline spans (docs/observability.md); ``None`` (the default)
      keeps the hot path entirely untraced.  Concrete algorithms that
      support tracing consult :attr:`tracer` per match, so it may also be
      attached or detached after construction.
    * ``heat`` — a :class:`repro.obs.heat.HeatMonitor` accumulating
      per-attribute probe/scan/cache heat (docs/profiling.md); ``None``
      (the default) keeps the hot path free of accounting.  Like the
      tracer, it is consulted per match and may be attached later.
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name = "abstract"

    def __init__(
        self,
        schema: Optional[Schema] = None,
        prorate: bool = False,
        aggregation: Aggregation = SUM,
        budget_tracker: Optional[BudgetTracker] = None,
        include_nonpositive: bool = False,
        tracer: Optional[Any] = None,
        heat: Optional[Any] = None,
    ) -> None:
        self.schema = schema if schema is not None else Schema()
        self.prorate = prorate
        self.aggregation = aggregation
        self.budget_tracker = budget_tracker
        self.include_nonpositive = include_nonpositive
        self.tracer = tracer
        self.heat = heat
        self._subscriptions: Dict[Any, Subscription] = {}

    # ------------------------------------------------------------------
    # Subscription management (paper Algorithm 1)
    # ------------------------------------------------------------------
    def add_subscription(self, subscription: Subscription) -> None:
        """Register a subscription; ``O(M log N)`` for FX-TM.

        Raises :class:`~repro.errors.DuplicateSubscriptionError` when the
        sid is already registered.
        """
        sid = subscription.sid
        if sid in self._subscriptions:
            raise DuplicateSubscriptionError(sid)
        self._subscriptions[sid] = subscription
        if self.budget_tracker is not None:
            self.budget_tracker.register(sid, subscription.budget)
        try:
            self._index_subscription(subscription)
        except Exception:
            # Exception safety: a rejected subscription (e.g. schema
            # conflict) leaves the matcher exactly as it was.
            del self._subscriptions[sid]
            if self.budget_tracker is not None:
                self.budget_tracker.unregister(sid)
            raise

    def cancel_subscription(self, sid: Any) -> Subscription:
        """Remove a subscription by id and return it; ``O(M log N)``.

        Raises :class:`~repro.errors.UnknownSubscriptionError` when absent.
        """
        try:
            subscription = self._subscriptions.pop(sid)
        except KeyError:
            raise UnknownSubscriptionError(sid) from None
        if self.budget_tracker is not None:
            self.budget_tracker.unregister(sid)
        self._deindex_subscription(subscription)
        return subscription

    def get_subscription(self, sid: Any) -> Subscription:
        """Return the registered subscription with this id.

        Raises :class:`~repro.errors.UnknownSubscriptionError` when absent.
        """
        try:
            return self._subscriptions[sid]
        except KeyError:
            raise UnknownSubscriptionError(sid) from None

    def update_subscription(self, subscription: Subscription) -> Subscription:
        """Replace the registered subscription with the same sid.

        An advertiser "changing the weights" (paper section 1.1) is a
        cancel + add with the same id; this performs both and returns the
        previous version.  The budget window restarts — Definition 4
        anchors the window to the (re-)add time.

        Raises :class:`~repro.errors.UnknownSubscriptionError` when no
        subscription with that sid exists (use :meth:`add_subscription`).
        """
        previous = self.cancel_subscription(subscription.sid)
        try:
            self.add_subscription(subscription)
        except Exception:
            # Restore the previous version so a failed update (e.g. a
            # schema conflict in the new constraints) is not a deletion.
            self.add_subscription(previous)
            raise
        return previous

    def __len__(self) -> int:
        """The paper's ``N``: number of registered subscriptions."""
        return len(self._subscriptions)

    def __contains__(self, sid: Any) -> bool:
        return sid in self._subscriptions

    @property
    def subscriptions(self) -> Dict[Any, Subscription]:
        """Read-only view intent: the registered subscriptions by sid."""
        return self._subscriptions

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, event: Event, k: int) -> List[MatchResult]:
        """Return the top-k matching set for ``event``, best first.

        Template method: delegates score computation to the concrete
        algorithm, then settles budgets — winners are charged and the
        logical clock advances one unit ("a time unit is the time taken by
        a single iteration of the matching algorithm", paper section 7.7).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        results = self._match_topk(event, k)
        self._settle(results)
        return results

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Match a batch of events in order; one result list per event.

        The batched contract is **exactness**: element ``i`` of the
        return value equals what ``match(events[i], k)`` would have
        returned at that point of the sequence — budgets are settled
        after each event exactly as in the single-event loop.  This
        default implementation *is* that loop; index-based algorithms
        override it to share probes across the batch (FX-TM memoises
        stabs and bucket lookups in a per-batch
        :class:`~repro.core.probecache.ProbeCache`).

        ``probe_cache`` lets the caller supply the cache so hit/miss
        counts can be observed afterwards; implementations that do not
        probe a shared index ignore it.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return [self.match(event, k) for event in events]

    def _settle(self, results: List[MatchResult]) -> None:
        tracker = self.budget_tracker
        if tracker is None:
            return
        for result in results:
            tracker.record_match(result.sid)
        clock = tracker.clock
        if isinstance(clock, LogicalClock):
            clock.tick()

    def budget_multiplier(self, sid: Any) -> float:
        """The current budget-window multiplier for ``sid`` (1.0 when off)."""
        if self.budget_tracker is None:
            return 1.0
        return self.budget_tracker.multiplier(sid)

    # ------------------------------------------------------------------
    # Hooks implemented by concrete algorithms
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _index_subscription(self, subscription: Subscription) -> None:
        """Add the subscription to the algorithm's index structures."""

    @abc.abstractmethod
    def _deindex_subscription(self, subscription: Subscription) -> None:
        """Remove the subscription from the algorithm's index structures."""

    @abc.abstractmethod
    def _match_topk(self, event: Event, k: int) -> List[MatchResult]:
        """Compute the top-k matching set (already budget-adjusted)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(N={len(self._subscriptions)}, prorate={self.prorate})"


class MatcherProxy:
    """Forwards the whole :class:`TopKMatcher` surface to :attr:`inner`.

    The base of :class:`~repro.core.stats.InstrumentedMatcher` and
    :class:`~repro.core.concurrent.ThreadSafeMatcher`: each overrides only
    what it adds, and since a proxy presents the surface it wraps, any
    wrapper stacks on any other.  Every member is delegated explicitly —
    there is deliberately no ``__getattr__`` fallback, which would let a
    member added to :class:`TopKMatcher` bypass a wrapper's lock unseen;
    tests/core/test_proxy.py checks that the base covers the surface.

    Besides that surface it forwards the two attributes the wrappers'
    consumers read: :attr:`registry` (``None`` for a bare engine) and
    :attr:`backend`.
    """

    def __init__(self, inner: Union[TopKMatcher, "MatcherProxy"]) -> None:
        self.inner = inner

    # -- subscription management ---------------------------------------
    def add_subscription(self, subscription: Subscription) -> None:
        self.inner.add_subscription(subscription)

    def cancel_subscription(self, sid: Any) -> Subscription:
        return self.inner.cancel_subscription(sid)

    def update_subscription(self, subscription: Subscription) -> Subscription:
        return self.inner.update_subscription(subscription)

    def get_subscription(self, sid: Any) -> Subscription:
        return self.inner.get_subscription(sid)

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, sid: Any) -> bool:
        return sid in self.inner

    @property
    def subscriptions(self) -> Dict[Any, Subscription]:
        return self.inner.subscriptions

    # -- matching ------------------------------------------------------
    def match(self, event: Event, k: int) -> List[MatchResult]:
        return self.inner.match(event, k)

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        return self.inner.match_batch(events, k, probe_cache)

    def budget_multiplier(self, sid: Any) -> float:
        return self.inner.budget_multiplier(sid)

    # -- configuration -------------------------------------------------
    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def schema(self) -> Schema:
        return self.inner.schema

    @property
    def prorate(self) -> bool:
        return self.inner.prorate

    @property
    def aggregation(self) -> Aggregation:
        return self.inner.aggregation

    @property
    def budget_tracker(self) -> Optional[BudgetTracker]:
        return self.inner.budget_tracker

    @property
    def include_nonpositive(self) -> bool:
        return self.inner.include_nonpositive

    @property
    def tracer(self) -> Optional[Any]:
        return self.inner.tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        self.inner.tracer = value

    @property
    def heat(self) -> Optional[Any]:
        return self.inner.heat

    @heat.setter
    def heat(self, value: Optional[Any]) -> None:
        self.inner.heat = value

    # -- attributes outside the TopKMatcher surface --------------------
    @property
    def registry(self) -> Optional[Any]:
        """The nearest instrumented layer's metrics registry, if any."""
        return getattr(self.inner, "registry", None)

    @property
    def backend(self) -> str:
        """The inner engine's resolved backend (``"python"`` unless it has one)."""
        backend: str = getattr(self.inner, "backend", "python")
        return backend
