"""Concurrency: RW lock semantics and the thread-safe wrapper."""

import random
import sys
import threading
import time

import pytest

from repro.core.attributes import Interval
from repro.core.concurrent import ReadWriteLock, ThreadSafeMatcher
from repro.core.budget import BudgetTracker
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.subscriptions import Constraint, Subscription

from tests.helpers import random_event, random_subscriptions


class TestReadWriteLock:
    def test_multiple_readers(self):
        lock = ReadWriteLock()
        active = []

        def reader(index):
            with lock.read_locked():
                active.append(index)
                time.sleep(0.05)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        assert len(active) == 4
        # Four 50ms readers overlapping: well under 4 x 50ms serial time.
        assert elapsed < 0.15

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        log = []

        def writer():
            with lock.write_locked():
                log.append("w-start")
                time.sleep(0.05)
                log.append("w-end")

        def reader():
            time.sleep(0.01)  # let the writer in first
            with lock.read_locked():
                log.append("r")

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        writer_thread.start()
        reader_thread.start()
        writer_thread.join()
        reader_thread.join()
        assert log == ["w-start", "w-end", "r"]

    def test_writers_mutually_exclusive(self):
        lock = ReadWriteLock()
        counter = {"value": 0, "max_inside": 0}
        inside = [0]
        guard = threading.Lock()

        def writer():
            for _ in range(50):
                with lock.write_locked():
                    with guard:
                        inside[0] += 1
                        counter["max_inside"] = max(counter["max_inside"], inside[0])
                    counter["value"] += 1
                    with guard:
                        inside[0] -= 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 200
        assert counter["max_inside"] == 1


class TestThreadSafeMatcher:
    def test_transparent_results(self):
        inner = FXTMMatcher(prorate=True)
        safe = ThreadSafeMatcher(FXTMMatcher(prorate=True))
        sub = Subscription("s", [Constraint("a", Interval(0, 10), 1.0)])
        inner.add_subscription(sub)
        safe.add_subscription(sub)
        event = Event({"a": 5})
        assert safe.match(event, 1) == inner.match(event, 1)
        assert len(safe) == 1
        assert "s" in safe
        assert safe.name == "fx-tm"

    def test_budgeted_matcher_degrades_to_exclusive(self):
        safe = ThreadSafeMatcher(FXTMMatcher(budget_tracker=BudgetTracker()))
        assert safe._exclusive_match

    def test_match_batch_transparent(self):
        rng = random.Random(7)
        subs = random_subscriptions(rng, 100, with_sets=True)
        plain = FXTMMatcher(prorate=True)
        safe = ThreadSafeMatcher(FXTMMatcher(prorate=True))
        for sub in subs:
            plain.add_subscription(sub)
            safe.add_subscription(sub)
        events = [random_event(rng) for _ in range(9)]
        assert safe.match_batch(events, 5) == plain.match_batch(events, 5)

    def test_match_batch_exclusive_path_for_budgeted_inner(self):
        safe = ThreadSafeMatcher(FXTMMatcher(budget_tracker=BudgetTracker()))
        safe.add_subscription(Subscription("s", [Constraint("a", Interval(0, 10))]))
        batches = safe.match_batch([Event({"a": 5}), Event({"a": 50})], 1)
        assert [[r.sid for r in results] for results in batches] == [["s"], []]

    def test_match_batch_atomic_under_churn(self):
        """A batch holds the read lock once: every event of one batch sees
        the same snapshot, so a sid either appears for all events of a
        (repeated-event) batch or for none."""
        safe = ThreadSafeMatcher(FXTMMatcher())
        safe.add_subscription(
            Subscription("base", [Constraint("a", Interval(0, 100), 1.0)])
        )
        errors = []
        stop = threading.Event()

        def batch_worker():
            while not stop.is_set():
                try:
                    batches = safe.match_batch([Event({"a": 5})] * 4, 10)
                    sid_sets = [frozenset(r.sid for r in results) for results in batches]
                    assert len(set(sid_sets)) == 1, f"torn batch: {sid_sets}"
                except Exception as error:  # pragma: no cover - test guard
                    errors.append(error)
                    return

        def churn_worker():
            try:
                for index in range(200):
                    sid = f"churn-{index}"
                    safe.add_subscription(
                        Subscription(sid, [Constraint("a", Interval(0, 100), 1.0)])
                    )
                    safe.cancel_subscription(sid)
            except Exception as error:  # pragma: no cover - test guard
                errors.append(error)

        workers = [threading.Thread(target=batch_worker) for _ in range(2)]
        churner = threading.Thread(target=churn_worker)
        for worker in workers:
            worker.start()
        churner.start()
        churner.join()
        stop.set()
        for worker in workers:
            worker.join()
        assert errors == []

    def test_update_is_atomic_to_concurrent_matches(self):
        """An update is a cancel plus an add inside the inner matcher; under
        the write lock no match sees the sid between the two."""
        safe = ThreadSafeMatcher(FXTMMatcher())
        safe.add_subscription(Subscription("s", [Constraint("a", Interval(0, 100), 1.0)]))
        errors = []
        stop = threading.Event()

        def match_worker():
            while not stop.is_set():
                sids = [r.sid for r in safe.match(Event({"a": 5}), 1)]
                if sids != ["s"]:
                    errors.append(sids)
                    return

        def update_worker():
            for index in range(300):
                weight = 1.0 + index % 2
                safe.update_subscription(
                    Subscription("s", [Constraint("a", Interval(0, 100), weight)])
                )

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            matchers = [threading.Thread(target=match_worker) for _ in range(3)]
            updater = threading.Thread(target=update_worker)
            for thread in matchers + [updater]:
                thread.start()
            updater.join(timeout=30)
            stop.set()
            for thread in matchers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in matchers + [updater])
        assert errors == []
        assert safe.get_subscription("s").constraints[0].weight == 2.0

    def test_concurrent_churn_never_corrupts(self):
        """Matches racing adds/cancels: every match returns a consistent
        snapshot and the final state equals the serial outcome."""
        rng = random.Random(3)
        subs = random_subscriptions(rng, 120)
        safe = ThreadSafeMatcher(FXTMMatcher(prorate=True))
        for sub in subs[:60]:
            safe.add_subscription(sub)
        errors = []
        stop = threading.Event()

        def matcher_worker():
            worker_rng = random.Random(99)
            while not stop.is_set():
                try:
                    results = safe.match(random_event(worker_rng), 5)
                    scores = [r.score for r in results]
                    assert scores == sorted(scores, reverse=True)
                except Exception as error:  # pragma: no cover - test guard
                    errors.append(error)
                    return

        def churn_worker():
            try:
                for sub in subs[60:]:
                    safe.add_subscription(sub)
                for sub in subs[:30]:
                    safe.cancel_subscription(sub.sid)
            except Exception as error:  # pragma: no cover - test guard
                errors.append(error)

        matchers = [threading.Thread(target=matcher_worker) for _ in range(3)]
        churner = threading.Thread(target=churn_worker)
        for thread in matchers:
            thread.start()
        churner.start()
        churner.join()
        stop.set()
        for thread in matchers:
            thread.join()
        assert not errors
        assert len(safe) == 90
