"""Matcher instrumentation: running statistics and registry-backed metrics.

The budget-window mechanism already requires the system to track "the
historical rate of matching" (paper section 1.1); this module generalises
that bookkeeping into production-grade instrumentation any deployment
wants: per-matcher request counters, latency aggregates with quantiles,
result-size distribution, and per-subscription serve counts.

:class:`MatcherStats` is built on a :class:`repro.obs.metrics.MetricsRegistry`
(its own private one by default, or a shared one for whole-process
exposition), so everything it records is scrapeable as Prometheus text
or a JSON document — see docs/observability.md for the metric catalogue.
:class:`RunningStats` (Welford) is kept alongside as the histogram-free
fallback: it is exact for mean/variance where bucketed histograms only
estimate quantiles, and remains the mergeable aggregate the distributed
reports use.

:class:`InstrumentedMatcher` wraps any :class:`TopKMatcher` without
changing its behaviour — it is a decorator in the plain OO sense, useful
both in deployments and in the benchmark harness's sanity checks.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.events import Event
from repro.core.interfaces import MatcherProxy, TopKMatcher
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult
from repro.core.subscriptions import Subscription
from repro.obs.metrics import MetricsRegistry

__all__ = ["RunningStats", "MatcherStats", "InstrumentedMatcher"]

#: Result-count buckets for the per-match result-size distribution.
_RESULT_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


class RunningStats:
    """Welford's online mean/variance over a stream of samples.

    Numerically stable, O(1) memory, exact count/min/max.  This is the
    histogram-free fallback aggregate: exact where
    :class:`repro.obs.metrics.Histogram` estimates, and cheaply mergeable
    across matchers/leaves.
    """

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, sample: float) -> None:
        """Fold one sample into the aggregates."""
        self.count += 1
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)
        if sample < self.min:
            self.min = sample
        if sample > self.max:
            self.max = sample

    @property
    def mean(self) -> float:
        """Mean of the recorded samples (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> None:
        """Fold another aggregate into this one (parallel Welford)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.6g}, "
            f"std={self.stddev:.6g})"
        )


class MatcherStats:
    """The aggregates an :class:`InstrumentedMatcher` maintains.

    Counters and latency/result histograms live in :attr:`registry`
    (scrapeable via Prometheus/JSON exposition); the exact Welford
    aggregates :attr:`match_seconds` / :attr:`results_returned` are kept
    in parallel as the histogram-free fallback.  The pre-registry
    attribute surface (``matches``, ``adds``, ``cancels``, ...) is
    preserved as properties over the registry counters.

    Every matcher metric carries ``algorithm`` / ``backend`` labels so a
    shared registry distinguishes ``fx-tm`` from ``fx-tm-array`` (and the
    array engine's python backend from its numpy one) in one scrape.
    The recorders write through children bound once here, so labeling
    adds no per-match lookup.
    """

    __slots__ = (
        "registry",
        "algorithm",
        "backend",
        "match_seconds",
        "results_returned",
        "serves_by_sid",
        "_labels",
        "_matches",
        "_ops",
        "_empty",
        "_latency",
        "_results",
        "_batch_events",
        "_batch_seconds",
        "_probe_hits",
        "_probe_misses",
        "_probe_hit_ratio",
    )

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        algorithm: str = "unknown",
        backend: str = "python",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.algorithm = algorithm
        self.backend = backend
        base = ("algorithm", "backend")
        labels = {"algorithm": algorithm, "backend": backend}
        self._labels = labels
        self._matches = self.registry.counter(
            "repro_matches_total", "MATCH requests served by this matcher", base
        ).labels(**labels)
        self._ops = self.registry.counter(
            "repro_subscription_ops_total",
            "subscription mutations by operation",
            labels=("op",) + base,
        )
        self._empty = self.registry.counter(
            "repro_empty_matches_total", "matches that returned no results", base
        ).labels(**labels)
        self._latency = self.registry.histogram(
            "repro_match_seconds", "wall seconds per match call", base
        ).labels(**labels)
        self._results = self.registry.histogram(
            "repro_match_results",
            "results returned per match",
            labels=base,
            buckets=_RESULT_BUCKETS,
        ).labels(**labels)
        self._batch_events = self.registry.counter(
            "repro_batch_events_total", "events served through match_batch", base
        ).labels(**labels)
        self._batch_seconds = self.registry.histogram(
            "repro_batch_seconds", "wall seconds per match_batch call", base
        ).labels(**labels)
        self._probe_hits = self.registry.counter(
            "repro_probe_cache_hits_total",
            "batch probe-cache lookups answered",
            base,
        ).labels(**labels)
        self._probe_misses = self.registry.counter(
            "repro_probe_cache_misses_total",
            "batch probe-cache lookups that probed",
            base,
        ).labels(**labels)
        self._probe_hit_ratio = self.registry.gauge(
            "repro_probe_cache_hit_ratio",
            "probe-cache hit ratio of the last batch",
            base,
        ).labels(**labels)
        self.match_seconds = RunningStats()
        self.results_returned = RunningStats()
        #: Times each live subscription has been served.  A cancel drops
        #: its sid (:meth:`forget_sid`), so under churn this holds at most
        #: one key per live subscription instead of one per sid ever
        #: served.
        self.serves_by_sid: Dict[Any, int] = {}

    # -- recorders --------------------------------------------------------
    def record_add(self) -> None:
        self._ops.labels(op="add", **self._labels).inc()

    def record_cancel(self) -> None:
        self._ops.labels(op="cancel", **self._labels).inc()

    def forget_sid(self, sid: Any) -> None:
        """Drop a cancelled subscription's serve count, if it has one."""
        self.serves_by_sid.pop(sid, None)

    def record_match(self, elapsed_seconds: float, results: List[MatchResult]) -> None:
        self._matches.inc()
        self._latency.observe(elapsed_seconds)
        self._results.observe(len(results))
        self.match_seconds.record(elapsed_seconds)
        self.results_returned.record(len(results))
        if not results:
            self._empty.inc()
        for result in results:
            self.serves_by_sid[result.sid] = self.serves_by_sid.get(result.sid, 0) + 1

    def record_batch(
        self,
        elapsed_seconds: float,
        batches: List[List[MatchResult]],
        cache: Optional[ProbeCache] = None,
    ) -> None:
        """Fold one ``match_batch`` call: per-event results + cache stats.

        Per-event aggregates (result sizes, empty matches, serves) fold
        exactly as ``len(batches)`` single matches would; only the wall
        time is batch-granular, recorded in ``repro_batch_seconds``.
        """
        self._batch_events.inc(len(batches))
        self._batch_seconds.observe(elapsed_seconds)
        for results in batches:
            self._results.observe(len(results))
            self.results_returned.record(len(results))
            if not results:
                self._empty.inc()
            for result in results:
                self.serves_by_sid[result.sid] = self.serves_by_sid.get(result.sid, 0) + 1
        if cache is not None:
            # Set the gauge unconditionally: a zero-probe batch (idle
            # matcher, empty event list) must report 0.0, not the stale
            # ratio of whichever batch last happened to probe.
            self._probe_hits.inc(cache.hits)
            self._probe_misses.inc(cache.misses)
            self._probe_hit_ratio.set(cache.hit_ratio)

    # -- the pre-registry attribute surface -------------------------------
    @property
    def matches(self) -> int:
        return int(self._matches.value)

    @property
    def batch_events(self) -> int:
        """Events served through ``match_batch`` (not counted in matches)."""
        return int(self._batch_events.value)

    @property
    def adds(self) -> int:
        return int(self._ops.labels(op="add", **self._labels).value)

    @property
    def cancels(self) -> int:
        return int(self._ops.labels(op="cancel", **self._labels).value)

    @property
    def empty_matches(self) -> int:
        return int(self._empty.value)

    @property
    def latency_histogram(self) -> Any:
        """The bucketed match-latency histogram (seconds)."""
        return self._latency

    def top_served(self, limit: int = 10) -> List[Tuple[Any, int]]:
        """The most-served subscriptions as ``(sid, count)``, best first."""
        ordered = sorted(
            self.serves_by_sid.items(),
            key=lambda kv: (-kv[1], type(kv[0]).__name__, repr(kv[0])),
        )
        return ordered[:limit]

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary (for dashboards / logs) with quantiles."""
        latency = self.latency_histogram
        return {
            "matches": self.matches,
            "adds": self.adds,
            "cancels": self.cancels,
            "empty_matches": self.empty_matches,
            "match_ms_mean": self.match_seconds.mean * 1e3,
            "match_ms_std": self.match_seconds.stddev * 1e3,
            "match_ms_max": (
                self.match_seconds.max * 1e3 if self.match_seconds.count else 0.0
            ),
            "match_ms_p50": latency.percentile(50) * 1e3,
            "match_ms_p95": latency.percentile(95) * 1e3,
            "match_ms_p99": latency.percentile(99) * 1e3,
            "results_mean": self.results_returned.mean,
            # Live subscriptions served at least once (cancelled sids
            # are forgotten), not every sid ever served.
            "distinct_sids_served": len(self.serves_by_sid),
        }


class InstrumentedMatcher(MatcherProxy):
    """A transparent statistics-collecting wrapper around any matcher.

    ``registry`` shares one :class:`~repro.obs.metrics.MetricsRegistry`
    across matchers (e.g. for one scrape endpoint per process); by default
    the wrapper gets its own.  ``tracer`` additionally wraps every match
    in a ``match`` span (and FX-TM emits its pipeline spans beneath it —
    the tracer is attached to the inner matcher too).  ``exemplars``
    attaches an :class:`~repro.obs.exemplars.ExemplarStore`: every match
    latency is observed, and (when a tracer is attached) slow matches
    retain their trace trees.

    Metrics are labeled with the inner matcher's ``name`` and (for the
    array engine) resolved ``backend``, so one registry can host several
    engines distinguishably.  The rest of the matcher surface is
    forwarded by :class:`~repro.core.interfaces.MatcherProxy`.

    >>> from repro import FXTMMatcher
    >>> wrapped = InstrumentedMatcher(FXTMMatcher())
    >>> # use `wrapped` exactly like the inner matcher
    """

    def __init__(
        self,
        inner: Union[TopKMatcher, MatcherProxy],
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Any] = None,
        exemplars: Optional[Any] = None,
    ) -> None:
        super().__init__(inner)
        self.stats = MatcherStats(
            registry,
            algorithm=inner.name,
            backend=getattr(inner, "backend", "python"),
        )
        self.exemplars = exemplars
        if tracer is not None:
            self.tracer = tracer

    @property
    def registry(self) -> MetricsRegistry:
        """The registry backing this wrapper's metrics."""
        return self.stats.registry

    # -- the counted members ---------------------------------------------
    def add_subscription(self, subscription: Subscription) -> None:
        self.inner.add_subscription(subscription)
        self.stats.record_add()

    def cancel_subscription(self, sid: Any) -> Subscription:
        subscription = self.inner.cancel_subscription(sid)
        self.stats.record_cancel()
        self.stats.forget_sid(sid)
        return subscription

    def update_subscription(self, subscription: Subscription) -> Subscription:
        # The sid stays live, so its serve count is kept.
        previous = self.inner.update_subscription(subscription)
        self.stats.record_cancel()
        self.stats.record_add()
        return previous

    def match(self, event: Event, k: int, *, cost: float = 1.0) -> List[MatchResult]:
        started = time.perf_counter()
        tracer = self.tracer
        if tracer is None:
            results = self.inner.match(event, k, cost=cost)
        else:
            with tracer.span("match", algorithm=self.inner.name, k=k):
                results = self.inner.match(event, k, cost=cost)
        elapsed = time.perf_counter() - started
        self.stats.record_match(elapsed, results)
        if self.exemplars is not None:
            trace = tracer.last_trace if tracer is not None else None
            self.exemplars.offer(trace, elapsed, k=k, results=len(results))
        return results

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Batched matching with probe-cache observability.

        Supplies the per-batch :class:`~repro.core.probecache.ProbeCache`
        itself (unless the caller passes one) so hit/miss counts land in
        the registry (``repro_probe_cache_*``); matchers whose
        ``match_batch`` ignores the cache (the base-class loop) simply
        record zero probes.
        """
        started = time.perf_counter()
        cache = probe_cache if probe_cache is not None else ProbeCache()
        tracer = self.tracer
        if tracer is None:
            batches = self.inner.match_batch(events, k, probe_cache=cache)
        else:
            with tracer.span(
                "match_batch", algorithm=self.inner.name, k=k, batch=len(events)
            ):
                batches = self.inner.match_batch(events, k, probe_cache=cache)
        elapsed = time.perf_counter() - started
        self.stats.record_batch(elapsed, batches, cache)
        if self.exemplars is not None:
            trace = tracer.last_trace if tracer is not None else None
            self.exemplars.offer(trace, elapsed, k=k, batch=len(events))
        return batches

    def __repr__(self) -> str:
        return f"InstrumentedMatcher({self.inner!r}, matches={self.stats.matches})"
