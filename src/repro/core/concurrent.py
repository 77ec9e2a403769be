"""Concurrency support for matchers.

The paper notes FX-TM's partitioning by attribute means "retrieving the
top-k subscriptions that match an event is done by searching each of the
relevant structures (possibly in parallel)", and that its evaluation
kept everything single-threaded only "to ensure a fair empirical
comparison" (section 4.2); section 7.1 adds that distributed data access
"is easily translated into multi-threading ... with an appropriate
locking scheme for concurrent updates and matches".

This module supplies that locking scheme and the parallel search:

* :class:`ReadWriteLock` — a writer-preferring RW lock (many concurrent
  matches, exclusive subscription updates);
* :class:`ThreadSafeMatcher` — wraps any matcher: ``match`` takes the
  read side, ``add/cancel`` the write side, so a server can serve
  matches from a thread pool while subscriptions churn;
* :class:`ParallelFXTMMatcher` — FX-TM with the per-attribute structure
  searches fanned out to a thread pool.  Under CPython's GIL this
  demonstrates the decomposition rather than a speedup; on GIL-free
  runtimes the per-attribute searches genuinely parallelise.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.events import Event
from repro.core.interfaces import TopKMatcher
from repro.core.matcher import FXTMMatcher, _RangedAttributeIndex
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult
from repro.core.scoring import SUM
from repro.core.subscriptions import Subscription

__all__ = ["ReadWriteLock", "ThreadSafeMatcher", "ParallelFXTMMatcher"]


class ReadWriteLock:
    """A writer-preferring read/write lock.

    Multiple readers may hold the lock simultaneously; writers get
    exclusive access and block new readers while waiting, so a steady
    stream of matches cannot starve subscription updates.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._readers_done = threading.Condition(self._mutex)
        self._writers_done = threading.Condition(self._mutex)
        self._active_readers = 0
        self._waiting_writers = 0
        self._writer_active = False

    # -- read side --------------------------------------------------------
    def acquire_read(self) -> None:
        with self._mutex:
            while self._writer_active or self._waiting_writers:
                self._writers_done.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._mutex:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._readers_done.notify_all()

    # -- write side ---------------------------------------------------------
    def acquire_write(self) -> None:
        with self._mutex:
            self._waiting_writers += 1
            while self._writer_active or self._active_readers:
                self._readers_done.wait()
            self._waiting_writers -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._mutex:
            self._writer_active = False
            self._readers_done.notify_all()
            self._writers_done.notify_all()

    # -- context-manager helpers ----------------------------------------
    class _Guard:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire: Callable[[], None], release: Callable[[], None]) -> None:
            self._acquire = acquire
            self._release = release

        def __enter__(self) -> None:
            self._acquire()

        def __exit__(self, *exc_info: Any) -> None:
            self._release()

    def read_locked(self) -> "ReadWriteLock._Guard":
        """``with lock.read_locked(): ...``"""
        return self._Guard(self.acquire_read, self.release_read)

    def write_locked(self) -> "ReadWriteLock._Guard":
        """``with lock.write_locked(): ...``"""
        return self._Guard(self.acquire_write, self.release_write)


class ThreadSafeMatcher:
    """Any matcher behind a read/write lock.

    Matching takes the read side, so concurrent matches proceed in
    parallel; subscription changes take the write side and exclude both
    matches and each other.

    Note: matchers with budget tracking mutate spend state during
    ``match``, so budgets demand the *write* side for matching too —
    the wrapper detects that and degrades to exclusive matching.
    """

    def __init__(self, inner: TopKMatcher) -> None:
        self.inner = inner
        self._lock = ReadWriteLock()
        self._exclusive_match = inner.budget_tracker is not None

    def add_subscription(self, subscription: Subscription) -> None:
        with self._lock.write_locked():
            self.inner.add_subscription(subscription)

    def cancel_subscription(self, sid: Any) -> Subscription:
        with self._lock.write_locked():
            return self.inner.cancel_subscription(sid)

    def match(self, event: Event, k: int) -> List[MatchResult]:
        if self._exclusive_match:
            with self._lock.write_locked():
                return self.inner.match(event, k)
        with self._lock.read_locked():
            return self.inner.match(event, k)

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Match a whole batch under one lock acquisition.

        Holding the lock across the batch is what licenses the inner
        matcher's probe cache: no subscription churn can interleave, so
        the index really is immutable for the batch's duration.
        """
        if self._exclusive_match:
            with self._lock.write_locked():
                return self.inner.match_batch(events, k, probe_cache)
        with self._lock.read_locked():
            return self.inner.match_batch(events, k, probe_cache)

    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self.inner)

    def __contains__(self, sid: Any) -> bool:
        with self._lock.read_locked():
            return sid in self.inner

    @property
    def name(self) -> str:
        return self.inner.name


class ParallelFXTMMatcher(FXTMMatcher):
    """FX-TM with per-attribute structure searches run on a thread pool.

    Faithful to the paper's observation that the two-level index makes
    attribute searches independent.  Each worker stabs one attribute's
    structure and returns ``(sid, subscore)`` pairs; the main thread folds
    them into the score map and runs the top-k phase, preserving exact
    FX-TM semantics.
    """

    name = "fx-tm/parallel"

    def __init__(self, max_workers: int = 4, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="fxtm-attr"
        )

    def close(self) -> None:
        """Shut the worker pool down; further matches raise RuntimeError."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelFXTMMatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _search_attribute(
        self, attribute: str, value: Any, event: Event
    ) -> List[Tuple[Any, float]]:
        """One worker's share: all (sid, subscore) pairs for an attribute."""
        structure = self._master_index.get(attribute)
        if structure is None:
            return []
        override = event.override_weight(attribute) if event.has_weights else None
        out = []
        if isinstance(structure, _RangedAttributeIndex):
            interval = event.interval_of(attribute)
            qlo, qhi = interval.low, interval.high
            kind = self.schema.kind_of(attribute)
            constant = kind.proration_constant if kind is not None else 0
            event_width = qhi - qlo + constant
            for low, high, sid, weight in structure.tree.stab(qlo, qhi):
                if override is not None:
                    weight = override
                if self.prorate:
                    overlap = min(qhi, high) - max(qlo, low) + constant
                    fraction = overlap / event_width if event_width > 0 else 1.0
                    weight *= min(fraction, 1.0)
                out.append((sid, weight))
        else:
            bucket = structure.buckets.get(value)
            if bucket is not None:
                for sid, weight in bucket.get_all():
                    out.append((sid, override if override is not None else weight))
        return out

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Batches deliberately take FX-TM's serial cached path (FX602).

        The per-batch probe cache already collapses repeated stabs across
        events, which is what the pool-based fan-out would spend its
        workers recomputing — plus per-event submit/join overhead.  The
        results are exact either way; this override exists to make the
        choice explicit rather than an accident of inheritance.
        """
        return super().match_batch(events, k, probe_cache=probe_cache)

    def _match_topk(self, event: Event, k: int) -> List[MatchResult]:
        known = list(event.known_items())
        futures = [
            self._pool.submit(self._search_attribute, attribute, value, event)
            for attribute, value in known
        ]
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        scoremap: Dict[Any, float] = {}
        for future in futures:
            for sid, subscore in future.result():
                if is_sum:
                    scoremap[sid] = scoremap.get(sid, 0.0) + subscore
                else:
                    scoremap[sid] = aggregation.combine(
                        scoremap.get(sid, aggregation.zero), subscore
                    )
        return self._select_topk(scoremap, k)
