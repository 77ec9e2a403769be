"""RaceDetector / InstrumentedRWLock (tests/racedetect.py) unit behaviour."""

import pytest

from repro.core.concurrent import ThreadSafeMatcher
from repro.core.matcher import FXTMMatcher
from tests.racedetect import (
    InstrumentedRWLock,
    LockOrderCycleError,
    RaceDetector,
    RaceViolationError,
    instrument_matcher,
)


def test_instrumented_lock_counts_acquisitions():
    detector = RaceDetector()
    lock = InstrumentedRWLock(detector, name="L")
    with lock.read_locked():
        pass
    with lock.write_locked():
        pass
    assert detector.acquisitions["L"] == [1, 1]
    detector.assert_clean()


def test_reader_admitted_during_write_is_a_violation():
    # Drive the detector directly, simulating a broken lock that admits
    # a reader while a writer is active.
    detector = RaceDetector()
    detector.note_acquired("L", "write", 0.0)
    detector.note_acquired("L", "read", 0.0)
    assert detector.violations
    with pytest.raises(RaceViolationError):
        detector.assert_clean()


def test_two_writers_is_a_violation():
    detector = RaceDetector()
    detector.note_acquired("L", "write", 0.0)
    detector.note_acquired("L", "write", 0.0)
    assert any("two writers" in violation for violation in detector.violations)


def test_lock_order_cycle_detected():
    detector = RaceDetector()
    detector.lock_order_edges.update({("A", "B"), ("B", "A")})
    with pytest.raises(LockOrderCycleError):
        detector.check_lock_order()


def test_nested_acquisition_records_an_order_edge():
    detector = RaceDetector()
    outer = InstrumentedRWLock(detector, name="outer")
    inner = InstrumentedRWLock(detector, name="inner")
    with outer.write_locked():
        with inner.write_locked():
            pass
    assert ("outer", "inner") in detector.lock_order_edges
    detector.check_lock_order()  # acyclic: must not raise


def test_writer_starvation_bound():
    detector = RaceDetector()
    detector.writer_waits["L"].append(1.0)
    detector.assert_clean(max_writer_wait_seconds=2.0)
    with pytest.raises(RaceViolationError):
        detector.assert_clean(max_writer_wait_seconds=0.5)


def test_instrument_matcher_swaps_the_lock():
    detector = RaceDetector()
    matcher = ThreadSafeMatcher(FXTMMatcher())
    instrument_matcher(matcher, detector, name="m")
    assert isinstance(matcher._lock, InstrumentedRWLock)
    assert len(matcher) == 0
    assert detector.acquisitions["m"][0] == 1  # __len__ took the read side


def test_instrument_matcher_rejects_unlocked_objects():
    with pytest.raises(TypeError):
        instrument_matcher(object(), RaceDetector())
