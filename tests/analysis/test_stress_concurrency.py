"""Concurrency stress: ThreadSafeMatcher under the runtime race detector.

Readers hammer ``match`` while writers churn ``add_subscription`` /
``cancel_subscription``; every lock transition is recorded by
:class:`RaceDetector`.  Afterwards the test asserts the discipline held:
no reader/writer exclusion violation, no lock-order cycle, and no
writer starved behind the read stream (the writer-preference property
of :class:`repro.core.concurrent.ReadWriteLock`).
"""

import itertools
import random
import threading

from repro.core.budget import BudgetTracker, LogicalClock
from repro.core.concurrent import ThreadSafeMatcher
from repro.core.interfaces import MatcherProxy
from repro.core.matcher import FXTMMatcher
from repro.core.subscriptions import Subscription
from tests.helpers import random_event, random_subscriptions
from tests.racedetect import RaceDetector, instrument_matcher

READERS = 4
WRITERS = 2
MATCHES_PER_READER = 150
CHURNS_PER_WRITER = 50
#: Far above any plausible wait for this workload, far below a hang.
STARVATION_BOUND_SECONDS = 10.0


class ReadersMeet(MatcherProxy):
    """Holds the first two matches until both are inside the read side.

    Readers otherwise overlap only when the GIL happens to switch inside
    a short match.  Once both have arrived, :attr:`met` is set; writers
    wait for it, since a waiting writer blocks new readers and the
    second reader could never arrive.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.met = threading.Event()
        self._barrier = threading.Barrier(
            2, action=self.met.set, timeout=STARVATION_BOUND_SECONDS
        )
        self._arrivals = itertools.count()

    def match(self, event, k, *, cost=1.0):
        if next(self._arrivals) < 2:
            self._barrier.wait()
        return super().match(event, k, cost=cost)


def _stress(matcher, detector, writers_wait_for=None):
    errors = []
    barrier = threading.Barrier(READERS + WRITERS)

    def reader(seed):
        rng = random.Random(f"{seed}:reader")
        barrier.wait()
        try:
            for _ in range(MATCHES_PER_READER):
                matcher.match(random_event(rng), 5)
        except Exception as error:  # noqa: BLE001 — re-raised via `errors`
            errors.append(error)

    def writer(seed):
        rng = random.Random(f"{seed}:writer")
        barrier.wait()
        try:
            if writers_wait_for is not None:
                assert writers_wait_for.wait(STARVATION_BOUND_SECONDS)
            for index in range(CHURNS_PER_WRITER):
                template = random_subscriptions(rng, 1)[0]
                # Integer sids, disjoint from the preloaded 0..199 range
                # (tie-breaking in the matcher orders sids, so keep one type).
                sid = 10_000 + seed * 1_000 + index
                matcher.add_subscription(Subscription(sid, template.constraints))
                assert sid in matcher
                matcher.cancel_subscription(sid)
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [
        threading.Thread(target=reader, args=(index,)) for index in range(READERS)
    ] + [
        threading.Thread(target=writer, args=(index,)) for index in range(WRITERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=STARVATION_BOUND_SECONDS * 3)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def test_matcher_is_race_free_under_concurrent_churn():
    rng = random.Random("fxlint-stress")
    matcher = ThreadSafeMatcher(FXTMMatcher())
    for sub in random_subscriptions(rng, 200):
        matcher.add_subscription(sub)
    detector = RaceDetector()
    instrument_matcher(matcher, detector, name="matcher")

    _stress(matcher, detector)

    detector.assert_clean(max_writer_wait_seconds=STARVATION_BOUND_SECONDS)
    reads, writes = detector.acquisitions["matcher"]
    assert reads >= READERS * MATCHES_PER_READER
    # add + membership-probe + cancel per churn; probes take the read side.
    assert writes >= WRITERS * CHURNS_PER_WRITER * 2


def test_budgeted_matcher_degrades_to_exclusive_matching():
    # With budget tracking, match() mutates spend state, so the wrapper
    # must take the write side for matches too — the detector sees only
    # write acquisitions from match().
    tracker = BudgetTracker(clock=LogicalClock())
    matcher = ThreadSafeMatcher(FXTMMatcher(budget_tracker=tracker))
    rng = random.Random("fxlint-budget-stress")
    for sub in random_subscriptions(rng, 50):
        matcher.add_subscription(sub)
    detector = RaceDetector()
    instrument_matcher(matcher, detector, name="budgeted")

    for _ in range(20):
        matcher.match(random_event(rng), 3)

    reads, writes = detector.acquisitions["budgeted"]
    assert reads == 0
    assert writes == 20
    detector.assert_clean()


def test_flat_stab_rebuild_is_clean_under_read_lock():
    # The lazy flat-view build in IntervalTree.stab runs under the
    # wrapper's *read* lock. The first two matches meet inside the read
    # side, so their first stabs build the views of the bulk-loaded
    # trees concurrently; writers then churn subscriptions, patching
    # (or, past the patch limit, staling) the views. The atomically
    # published (epoch, ordered, block_max) tuple must keep every reader
    # consistent; the detector confirms the lock discipline held while
    # the builds happened on the read side.
    rng = random.Random("flat-stab-stress")
    inner = ReadersMeet(FXTMMatcher())
    matcher = ThreadSafeMatcher(inner)
    for sub in random_subscriptions(rng, 300):
        matcher.add_subscription(sub)
    detector = RaceDetector()
    instrument_matcher(matcher, detector, name="flatstab")

    _stress(matcher, detector, writers_wait_for=inner.met)

    detector.assert_clean(max_writer_wait_seconds=STARVATION_BOUND_SECONDS)
    reads, _writes = detector.acquisitions["flatstab"]
    assert reads >= READERS * MATCHES_PER_READER
    assert detector.max_concurrent_readers["flatstab"] > 1
