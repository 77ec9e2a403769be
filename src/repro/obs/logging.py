"""Structured JSON logging for runtime events.

The fault-tolerance layer makes consequential decisions at runtime —
suspecting a leaf, quarantining it, falling back to a replica, recovering
from a snapshot — that previously happened silently.  A
:class:`StructuredLogger` turns each into one flat JSON object with a
stable schema: ``ts`` (seconds, from an injectable clock so tests are
deterministic), ``level``, ``event`` (a dotted name such as
``leaf.dead``), plus event-specific fields.

Records always land in a bounded in-memory ring buffer (queryable via
:meth:`~StructuredLogger.records_for`); when a ``stream`` is attached,
each record is also written as one JSON line.  :meth:`child` binds
context fields (e.g. ``component="health"``) into every record while
sharing the parent's buffer and stream, which is how one logger threads
through the whole cluster.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, TextIO

from repro.errors import ObservabilityError

__all__ = ["LOG_EVENTS", "StructuredLogger", "LEVELS"]

#: Recognised levels, in increasing severity.
LEVELS = ("debug", "info", "warning", "error")

#: Every event name the distributed overlay emits (docs/observability.md
#: section 3).  Emit sites keep their literals; a test in
#: tests/distributed/test_observability.py drives every emit site and
#: pins the names it sees to this set.
LOG_EVENTS = frozenset(
    {
        "cluster.configured",
        "match.degraded",
        "leaf.crashed",
        "leaf.recovered",
        "leaf.reassigned",
        "leaf.suspect",
        "leaf.dead",
        "leaf.alive",
        "leaf.readmitted",
        "faults.match_begin",
        "controller.parse_error",
        "controller.request_failed",
    }
)


class StructuredLogger:
    """JSON-line event logging with a bounded in-memory ring buffer.

    >>> logger = StructuredLogger(clock=lambda: 12.0)
    >>> record = logger.warning("leaf.suspect", leaf=3, consecutive_timeouts=1)
    >>> record["event"] == logger.records[-1]["event"] == 'leaf.suspect'
    True
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        clock: Any = time.time,
        max_records: int = 2048,
        _bound: Optional[Dict[str, Any]] = None,
        _records: Optional[List[Dict[str, Any]]] = None,
        _dropped: Optional[List[int]] = None,
    ) -> None:
        if max_records < 1:
            raise ObservabilityError(f"max_records must be >= 1, got {max_records}")
        self.stream = stream
        self.clock = clock
        self.max_records = max_records
        self._bound = dict(_bound) if _bound else {}
        #: Shared ring buffer of emitted records (oldest first).
        self.records: List[Dict[str, Any]] = _records if _records is not None else []
        # One-cell holder so parent and children share the drop count
        # exactly as they share the ring buffer itself.
        self._dropped: List[int] = _dropped if _dropped is not None else [0]

    @property
    def dropped_events(self) -> int:
        """Records evicted from the ring buffer since construction."""
        return self._dropped[0]

    def child(self, **bound: Any) -> "StructuredLogger":
        """A logger sharing this buffer/stream with extra bound fields."""
        merged = dict(self._bound)
        merged.update(bound)
        return StructuredLogger(
            stream=self.stream,
            clock=self.clock,
            max_records=self.max_records,
            _bound=merged,
            _records=self.records,
            _dropped=self._dropped,
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def log(self, event: str, level: str = "info", **fields: Any) -> Dict[str, Any]:
        """Emit one structured record; returns it (already buffered)."""
        if level not in LEVELS:
            raise ObservabilityError(f"unknown log level {level!r}; use one of {LEVELS}")
        if not event:
            raise ObservabilityError("log event name must be non-empty")
        record: Dict[str, Any] = {"ts": float(self.clock()), "level": level, "event": event}
        record.update(self._bound)
        record.update(fields)
        self.records.append(record)
        if len(self.records) > self.max_records:
            overflow = len(self.records) - self.max_records
            del self.records[:overflow]
            self._dropped[0] += overflow
        if self.stream is not None:
            self.stream.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return record

    def debug(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self.log(event, level="debug", **fields)

    def info(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self.log(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self.log(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self.log(event, level="error", **fields)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records_for(
        self, event: Optional[str] = None, level: Optional[str] = None, **fields: Any
    ) -> List[Dict[str, Any]]:
        """Buffered records matching the given event/level/field filters."""
        matched = []
        for record in self.records:
            if event is not None and record.get("event") != event:
                continue
            if level is not None and record.get("level") != level:
                continue
            if any(record.get(key) != value for key, value in fields.items()):
                continue
            matched.append(record)
        return matched

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary: buffer state plus the buffered records.

        ``dropped_events_total`` makes the ring buffer's silent eviction
        observable — a reader seeing ``buffered == max_records`` can
        tell whether history was lost and how much.
        """
        return {
            "max_records": self.max_records,
            "buffered": len(self.records),
            "dropped_events_total": self.dropped_events,
            "records": [dict(record) for record in self.records],
        }

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"StructuredLogger(records={len(self.records)}, bound={self._bound})"
