"""Concurrency support for matchers.

The paper notes FX-TM's partitioning by attribute means "retrieving the
top-k subscriptions that match an event is done by searching each of the
relevant structures (possibly in parallel)", and that its evaluation
kept everything single-threaded only "to ensure a fair empirical
comparison" (section 4.2); section 7.1 adds that distributed data access
"is easily translated into multi-threading ... with an appropriate
locking scheme for concurrent updates and matches".

This module supplies that locking scheme:

* :class:`ReadWriteLock` — a writer-preferring RW lock (many concurrent
  matches, exclusive subscription updates);
* :class:`ThreadSafeMatcher` — wraps any matcher: matches and reads take
  the read side, ``add/cancel/update`` the write side, so a server can
  serve matches from a thread pool while subscriptions churn.

It holds no parallel search: under CPython's GIL a thread-pool fan-out
of the per-attribute searches only adds overhead.  Parallel matching is
ROADMAP's worker-process item (overlay leaves and sid-range shards on a
process pool over shared-memory arrays).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.events import Event
from repro.core.interfaces import MatcherProxy, TopKMatcher
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult
from repro.core.subscriptions import Subscription

__all__ = ["ReadWriteLock", "ThreadSafeMatcher"]


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


class ThreadSafeMatcher(MatcherProxy):
    """Any matcher behind a read/write lock.

    Matching takes the read side, so concurrent matches proceed in
    parallel; subscription changes take the write side and exclude both
    matches and each other.  Every member that touches the inner
    matcher's state is overridden here to take the lock; the rest of the
    surface (configuration, tracer, heat) is forwarded unlocked by
    :class:`~repro.core.interfaces.MatcherProxy`.

    Note: matchers with budget tracking mutate spend state during
    ``match``, so budgets demand the *write* side for matching too —
    the wrapper detects that and degrades to exclusive matching.
    """

    def __init__(self, inner: Union[TopKMatcher, MatcherProxy]) -> None:
        super().__init__(inner)
        self._lock = ReadWriteLock()
        self._exclusive_match = inner.budget_tracker is not None

    # -- writes --------------------------------------------------------
    def add_subscription(self, subscription: Subscription) -> None:
        with self._lock.write_locked():
            self.inner.add_subscription(subscription)

    def cancel_subscription(self, sid: Any) -> Subscription:
        with self._lock.write_locked():
            return self.inner.cancel_subscription(sid)

    def update_subscription(self, subscription: Subscription) -> Subscription:
        with self._lock.write_locked():
            return self.inner.update_subscription(subscription)

    # -- matches -------------------------------------------------------
    def match(self, event: Event, k: int, *, cost: float = 1.0) -> List[MatchResult]:
        if self._exclusive_match:
            with self._lock.write_locked():
                return self.inner.match(event, k, cost=cost)
        with self._lock.read_locked():
            return self.inner.match(event, k, cost=cost)

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

    # -- reads ---------------------------------------------------------
    def get_subscription(self, sid: Any) -> Subscription:
        with self._lock.read_locked():
            return self.inner.get_subscription(sid)

    def budget_multiplier(self, sid: Any) -> float:
        with self._lock.read_locked():
            return self.inner.budget_multiplier(sid)

    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self.inner)

    def __contains__(self, sid: Any) -> bool:
        with self._lock.read_locked():
            return sid in self.inner

    @property
    def subscriptions(self) -> Dict[Any, Subscription]:
        """A copy taken under the read lock, never the live dict."""
        with self._lock.read_locked():
            return dict(self.inner.subscriptions)
