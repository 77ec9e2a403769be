"""Test helper: a runtime race detector for the ReadWriteLock layer.

tests/core/test_concurrent.py pins which lock side each
``ThreadSafeMatcher`` member takes; this helper checks that the lock
keeps its promises under stress.  :class:`InstrumentedRWLock` is a
drop-in :class:`repro.core.concurrent.ReadWriteLock` that reports every
acquisition/release to a shared :class:`RaceDetector`, which

* **asserts reader/writer exclusion** — at no instant may a writer
  coexist with another writer or with any reader on the same lock
  (checked under the detector's own mutex, so a buggy lock cannot hide
  the overlap);
* **records lock-order edges** — when a thread acquires lock B while
  holding lock A, the edge A→B is recorded;
  :meth:`RaceDetector.check_lock_order` then fails on any cycle
  (potential deadlock) across the locks it watched;
* **tracks writer wait times** — so stress tests can assert the
  writer-preference property (no writer starves behind a stream of
  readers).

Typical use in a stress test::

    detector = RaceDetector()
    safe = ThreadSafeMatcher(FXTMMatcher())
    instrument_matcher(safe, detector, name="matcher")
    ... hammer safe.match / add_subscription / cancel_subscription ...
    detector.assert_clean()

The detector is intentionally allocation-light: counters and sets only,
no per-event log, so stress tests can run hundreds of thousands of
operations without distorting the interleavings they probe.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.concurrent import ReadWriteLock

__all__ = [
    "InstrumentedRWLock",
    "LockOrderCycleError",
    "RaceDetector",
    "RaceViolationError",
    "instrument_matcher",
]


class RaceViolationError(AssertionError):
    """Raised by :meth:`RaceDetector.assert_clean` on exclusion violations."""


class LockOrderCycleError(AssertionError):
    """Raised when the recorded lock-order graph contains a cycle."""


class RaceDetector:
    """Shared recorder asserting RW-lock invariants across threads.

    Thread-safe; one detector may watch any number of instrumented
    locks.  All counters are cumulative over the detector's lifetime.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: Human-readable descriptions of every exclusion violation seen.
        self.violations: List[str] = []
        #: lock name -> (reads, writes) acquisition counts.
        self.acquisitions: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        #: Directed edges (outer lock, inner lock) observed across threads.
        self.lock_order_edges: Set[Tuple[str, str]] = set()
        #: Peak concurrent readers per lock (evidence reads do overlap).
        self.max_concurrent_readers: Dict[str, int] = defaultdict(int)
        #: Per-lock writer wait times in seconds (starvation evidence).
        self.writer_waits: Dict[str, List[float]] = defaultdict(list)
        # Internal live state per lock name.
        self._readers: Dict[str, int] = defaultdict(int)
        self._writers: Dict[str, int] = defaultdict(int)
        # Locks currently held per thread id (for order edges).
        self._held: Dict[int, List[str]] = defaultdict(list)

    # -- events reported by InstrumentedRWLock ---------------------------
    def note_acquired(self, name: str, kind: str, waited: float) -> None:
        thread = threading.get_ident()
        with self._mutex:
            for outer in self._held[thread]:
                if outer != name:
                    self.lock_order_edges.add((outer, name))
            self._held[thread].append(name)
            if kind == "read":
                self.acquisitions[name][0] += 1
                self._readers[name] += 1
                if self._writers[name]:
                    self.violations.append(
                        f"{name}: reader admitted while a writer is active"
                    )
                self.max_concurrent_readers[name] = max(
                    self.max_concurrent_readers[name], self._readers[name]
                )
            else:
                self.acquisitions[name][1] += 1
                self._writers[name] += 1
                self.writer_waits[name].append(waited)
                if self._writers[name] > 1:
                    self.violations.append(f"{name}: two writers active at once")
                if self._readers[name]:
                    self.violations.append(
                        f"{name}: writer admitted while {self._readers[name]} "
                        "reader(s) active"
                    )

    def note_released(self, name: str, kind: str) -> None:
        thread = threading.get_ident()
        with self._mutex:
            held = self._held[thread]
            if name in held:
                # Remove the innermost occurrence.
                for index in range(len(held) - 1, -1, -1):
                    if held[index] == name:
                        del held[index]
                        break
            if kind == "read":
                self._readers[name] -= 1
                if self._readers[name] < 0:
                    self.violations.append(f"{name}: release_read without acquire_read")
            else:
                self._writers[name] -= 1
                if self._writers[name] < 0:
                    self.violations.append(f"{name}: release_write without acquire_write")

    # -- assertions -------------------------------------------------------
    def check_lock_order(self) -> None:
        """Raise :class:`LockOrderCycleError` if the edge graph has a cycle."""
        graph: Dict[str, Set[str]] = defaultdict(set)
        for outer, inner in self.lock_order_edges:
            graph[outer].add(inner)
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = defaultdict(int)

        def visit(node: str, path: List[str]) -> None:
            color[node] = GRAY
            path.append(node)
            for neighbour in sorted(graph[node]):
                if color[neighbour] == GRAY:
                    cycle = path[path.index(neighbour):] + [neighbour]
                    raise LockOrderCycleError(
                        "lock-order cycle (potential deadlock): " + " -> ".join(cycle)
                    )
                if color[neighbour] == WHITE:
                    visit(neighbour, path)
            path.pop()
            color[node] = BLACK

        for node in sorted(graph):
            if color[node] == WHITE:
                visit(node, [])

    def max_writer_wait(self, name: str) -> float:
        """The longest observed wait for the write lock, in seconds."""
        waits = self.writer_waits.get(name)
        return max(waits) if waits else 0.0

    def assert_clean(self, max_writer_wait_seconds: Optional[float] = None) -> None:
        """Raise unless exclusion held, ordering is acyclic and (optionally)
        no writer waited longer than ``max_writer_wait_seconds``."""
        if self.violations:
            sample = "; ".join(self.violations[:5])
            raise RaceViolationError(
                f"{len(self.violations)} exclusion violation(s): {sample}"
            )
        self.check_lock_order()
        if max_writer_wait_seconds is not None:
            for name, waits in self.writer_waits.items():
                worst = max(waits)
                if worst > max_writer_wait_seconds:
                    raise RaceViolationError(
                        f"{name}: a writer waited {worst:.3f}s "
                        f"(> {max_writer_wait_seconds:.3f}s) — starvation"
                    )


class InstrumentedRWLock(ReadWriteLock):
    """A ReadWriteLock reporting every transition to a :class:`RaceDetector`.

    Detector bookkeeping happens *after* acquisition and *before*
    release, under the detector's own mutex — so if the underlying lock
    ever admitted overlapping writers, both would be visible to the
    detector simultaneously and the overlap recorded as a violation.
    """

    def __init__(self, detector: RaceDetector, name: str = "rwlock") -> None:
        super().__init__()
        self.detector = detector
        self.name = name

    def acquire_read(self) -> None:
        started = time.perf_counter()
        super().acquire_read()
        self.detector.note_acquired(self.name, "read", time.perf_counter() - started)

    def release_read(self) -> None:
        self.detector.note_released(self.name, "read")
        super().release_read()

    def acquire_write(self) -> None:
        started = time.perf_counter()
        super().acquire_write()
        self.detector.note_acquired(self.name, "write", time.perf_counter() - started)

    def release_write(self) -> None:
        self.detector.note_released(self.name, "write")
        super().release_write()


def instrument_matcher(matcher: Any, detector: RaceDetector, name: str = "matcher") -> Any:
    """Swap a :class:`~repro.core.concurrent.ThreadSafeMatcher`'s lock for an
    instrumented one watched by ``detector``; returns the matcher.

    Must be called before the matcher is shared between threads (the
    swap itself is not atomic with respect to in-flight operations).
    """
    lock = getattr(matcher, "_lock", None)
    if not isinstance(lock, ReadWriteLock):
        raise TypeError(
            f"{type(matcher).__name__} has no ReadWriteLock at ._lock; "
            "only ThreadSafeMatcher-style wrappers can be instrumented"
        )
    matcher._lock = InstrumentedRWLock(detector, name=name)
    return matcher
