"""Spans recorded by wrapping public functions from outside the program.

The traced pass swaps chosen functions for thin wrappers, runs the
workload, and puts every original back in ``finally``.  A *timed*
wrapper records one span per call: ``(name, start, end, parent, request
id)``, where ``parent`` is the index of the enclosing span (or -1) and
the request id is whatever the caller set on the recorder.  Functions
called once per candidate would drown in their own timing, so they get
a *counted* wrapper instead, which only increments a counter.

A span's self time is its duration minus the durations of its direct
children.  The wrapped program runs on one thread, so children never
overlap and the self times of a tree sum to its root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Target", "SpanRecorder", "tracing", "self_times"]

#: ``(name, start, end, parent index or -1, request id)``; seconds.
Span = Tuple[str, float, float, int, Any]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr``, recorded under ``name``.

    ``owner`` is a class or a module.  Patch a function where callers
    look it up: a name imported with ``from x import f`` lives on in the
    importing module, so that module is the owner.  With ``timed=False``
    calls are only counted.  ``tally``, when given, maps the call's result
    to an int added to the counter ``name + ".tally"``.
    """

    owner: Any
    attr: str
    name: str
    timed: bool = True
    tally: Optional[Callable[[Any], int]] = None


class SpanRecorder:
    """In-memory store of spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Stamped on every span that starts while it is set.
        self.request_id: Any = None
        self._open: List[int] = []

    def timed(self, name: str, function: Callable[..., Any], tally: Optional[Callable[[Any], int]] = None) -> Callable[..., Any]:
        """Wrap ``function`` so each call records a span named ``name``."""
        spans = self.spans
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append((name, 0.0, 0.0, parent, self.request_id))
            open_spans.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent, spans[index][4])
            if tally is not None:
                counts[name + ".tally"] += tally(result)
            return result

        return wrapper

    def counted(self, name: str, function: Callable[..., Any], tally: Optional[Callable[[Any], int]] = None) -> Callable[..., Any]:
        """Wrap ``function`` so each call increments the counter ``name``."""
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            result = function(*args, **kwargs)
            if tally is not None:
                counts[name + ".tally"] += tally(result)
            return result

        return wrapper


@contextmanager
def tracing(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[SpanRecorder]:
    """Install a wrapper for every target; restore all originals on exit."""
    restore: List[Callable[[], None]] = []
    try:
        for target in targets:
            restore.append(_install(recorder, target))
        yield recorder
    finally:
        for undo in reversed(restore):
            undo()


def _install(recorder: SpanRecorder, target: Target) -> Callable[[], None]:
    owner, attr = target.owner, target.attr
    wrap = recorder.timed if target.timed else recorder.counted
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if raw is None:
            raise AttributeError(f"{owner.__name__} does not define {attr!r} itself")
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(wrap(target.name, raw.__func__, target.tally)))
        else:
            setattr(owner, attr, wrap(target.name, raw, target.tally))
    else:
        raw = getattr(owner, attr)
        setattr(owner, attr, wrap(target.name, raw, target.tally))
    return lambda: setattr(owner, attr, raw)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [end - start for _name, start, end, _parent, _request in spans]
    for _name, start, end, parent, _request in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own

