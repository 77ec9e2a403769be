"""Span-based tracing for the match pipeline and the simulated cluster.

A :class:`Tracer` holds a stack of open :class:`Span` objects; entering a
span nests it under the currently open one, and a root span that closes
is appended to :attr:`Tracer.traces` (a bounded history).  Spans carry a
name, free-form attributes, and a duration — measured wall seconds by
default, or an explicit duration via :meth:`Span.set_duration` /
:meth:`Tracer.record` for work that lives on the *simulated* clock (the
distributed overlay's hops, timeouts, and backoffs).  Mixing the two is
deliberate and mirrors DESIGN.md's substitution table: compute spans are
measured, wire spans are modelled; spans whose duration is simulated are
marked with a ``simulated`` attribute by their emitters.

Export formats:

* :meth:`Tracer.to_json` — nested trace trees for programmatic use;
* :meth:`Tracer.render` — a flame-style indented text summary with
  per-span share of the root's duration;
* :func:`aggregate_phases` — total seconds per span name across traces,
  which is how the benchmark harness attributes time to pipeline stages.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.errors import ObservabilityError

__all__ = ["SPAN_NAMES", "Span", "Tracer", "aggregate_phases"]

#: Every span name the system emits (docs/observability.md section 2).
#: Emit sites keep their literals; tests/obs/test_tracing.py traces the
#: engines and the overlay and pins the names they emit to this set.
SPAN_NAMES = frozenset(
    {
        # Single-node pipeline: InstrumentedMatcher and fx-tm.
        "match",
        "match_batch",
        "fxtm.match",
        "fxtm.match_batch",
        "master_index.lookup",
        "attribute.probe",
        "candidates.score",
        "topk.select",
        # Zero-duration probe-cache outcomes inside fxtm.match_batch.
        "probe_cache.hit",
        "probe_cache.miss",
        # Distributed overlay: DistributedTopKSystem.
        "distributed.match",
        "distributed.match_batch",
        "leaf.quarantined",
        "leaf.dispatch",
        "leaf.attempt",
        "leaf.backoff",
        "leaf.hop",
        "leaf.local_match",
        "leaf.local_match_batch",
        "aggregate",
        "aggregation.hop",
        "aggregation.backoff",
        "merge",
        "root.hop",
    }
)


class Span:
    """One named, attributed, timed node of a trace tree."""

    __slots__ = ("name", "start", "end", "attributes", "children", "_duration_override")

    def __init__(self, name: str, start: float, **attributes: Any) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List["Span"] = []
        self._duration_override: Optional[float] = None

    @property
    def duration(self) -> float:
        """Seconds: the override when set, else ``end - start`` (0 if open)."""
        if self._duration_override is not None:
            return self._duration_override
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_duration(self, seconds: float) -> None:
        """Pin the span's duration (e.g. to a simulated-clock interval)."""
        if seconds < 0:
            raise ObservabilityError(f"span duration must be >= 0, got {seconds}")
        self._duration_override = seconds

    def annotate(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def find(self, name: str) -> List["Span"]:
        """Every descendant (and possibly self) with this span name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "duration_seconds": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Collects nested spans into a bounded history of trace trees.

    >>> tracer = Tracer()
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner", step=1):
    ...         pass
    >>> tracer.last_trace.children[0].name
    'inner'
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_traces: int = 64,
    ) -> None:
        if max_traces < 1:
            raise ObservabilityError(f"max_traces must be >= 1, got {max_traces}")
        self._clock = clock
        self._stack: List[Span] = []
        self.max_traces = max_traces
        #: Completed root spans, oldest first, trimmed to ``max_traces``.
        self.traces: List[Span] = []

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def begin(self, name: str, **attributes: Any) -> Span:
        """Open a span nested under the currently open one."""
        span = Span(name, self._clock(), **attributes)
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, **attributes: Any) -> Span:
        """Close the innermost open span."""
        if not self._stack:
            raise ObservabilityError("no open span to end")
        span = self._stack.pop()
        span.end = self._clock()
        if attributes:
            span.annotate(**attributes)
        if not self._stack:
            self.traces.append(span)
            if len(self.traces) > self.max_traces:
                del self.traces[: len(self.traces) - self.max_traces]
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context-managed span; errors are annotated, never swallowed."""
        span = self.begin(name, **attributes)
        try:
            yield span
        except BaseException as error:
            span.annotate(error=type(error).__name__)
            raise
        finally:
            self.end()

    def record(self, name: str, seconds: float, **attributes: Any) -> Span:
        """Attach an already-finished span with an explicit duration.

        Used for work that happened on a clock the tracer does not own —
        the simulated overlay's hop latencies, timeouts, and backoffs.
        """
        span = Span(name, self._clock(), **attributes)
        span.end = span.start
        span.set_duration(seconds)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.traces.append(span)
            if len(self.traces) > self.max_traces:
                del self.traces[: len(self.traces) - self.max_traces]
        return span

    @property
    def active_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def last_trace(self) -> Optional[Span]:
        return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        if self._stack:
            raise ObservabilityError("cannot clear a tracer with open spans")
        self.traces.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self, trace: Optional[Span] = None) -> Any:
        """One trace tree (default: the last) as a JSON-ready dict."""
        target = trace if trace is not None else self.last_trace
        return target.to_dict() if target is not None else None

    def render(self, trace: Optional[Span] = None) -> str:
        """A flame-style indented text summary of one trace tree."""
        target = trace if trace is not None else self.last_trace
        if target is None:
            return "(no traces recorded)"
        total = target.duration or 1e-12
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            share = 100.0 * span.duration / total
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(span.attributes.items())
            )
            label = f"{'  ' * depth}{span.name}"
            line = f"{label:<44} {span.duration * 1e3:>10.3f}ms {share:>6.1f}%"
            if attrs:
                line += f"  {attrs}"
            lines.append(line)
            for child in span.children:
                emit(child, depth + 1)

        emit(target, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Tracer(traces={len(self.traces)}, open={len(self._stack)})"


def aggregate_phases(traces: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name totals across trace trees: cumulative, self, and count.

    ``seconds`` is cumulative (a span's whole duration, children
    included); ``self_seconds`` subtracts the direct children's
    durations, so a child's time is never double-counted in its parent —
    summing ``self_seconds`` over all names reproduces each trace's
    wall time exactly once.  Clamped at zero: with overridden durations
    (simulated clocks) children can nominally exceed their parent.

    The benchmark harness uses this to attribute measured time to pipeline
    stages (probe vs. score vs. top-k selection) over a whole event batch.
    """
    totals: Dict[str, Dict[str, float]] = {}

    def visit(span: Span) -> None:
        entry = totals.setdefault(
            span.name, {"seconds": 0.0, "self_seconds": 0.0, "count": 0}
        )
        duration = span.duration
        children_seconds = sum(child.duration for child in span.children)
        entry["seconds"] += duration
        entry["self_seconds"] += max(duration - children_seconds, 0.0)
        entry["count"] += 1
        for child in span.children:
            visit(child)

    for trace in traces:
        visit(trace)
    return totals
