"""A dependency-free metrics registry: counters, gauges, histograms.

The budget-window mechanism (paper Definition 4) already forces the
matcher to track "the historical rate of matching"; this module
generalises that bookkeeping into a production-style metrics facility —
named, labeled instruments collected in a :class:`MetricsRegistry` and
exposable both as a JSON document (dashboards, tests) and in the
Prometheus text format (scrapers).  Nothing here imports outside the
standard library, so every layer of the system can depend on it.

Instruments:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — bucketed observations with count/sum/min/max and
  interpolated :meth:`~Histogram.percentile` estimates (p50/p95/p99).

Families returned by the registry are *labeled*: ``family.labels(op="add")``
returns the child instrument for that label combination, created on first
use.  An unlabeled family proxies a single default child so the common
case stays one call: ``registry.counter("repro_matches_total").inc()``.

:func:`parse_prom_text` parses the exposition format back into samples,
which is what lets the test suite round-trip the scrape output.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prom_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Upper bounds (seconds) sized for matching latencies: 50us .. 10s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter increments must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed observations with interpolated quantile estimates.

    ``buckets`` are the upper bounds of each bucket (strictly increasing);
    an implicit ``+Inf`` bucket catches the overflow.  :meth:`percentile`
    interpolates linearly inside the winning bucket and clamps to the
    observed min/max, so estimates are sane even for skewed streams —
    exact mean/min/max are tracked alongside, making the histogram a
    strict superset of :class:`~repro.core.stats.RunningStats` minus the
    variance.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise ObservabilityError("histogram needs at least one bucket bound")
        if any(upper <= lower for lower, upper in zip(bounds, bounds[1:])):
            raise ObservabilityError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; last entry is the +Inf bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.bucket_counts[lo] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((math.inf, running + self.bucket_counts[-1]))
        return pairs

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` (0..100); 0.0 when empty."""
        if not 0 <= p <= 100:
            raise ObservabilityError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * self.count
        running = 0.0
        for index, bucket in enumerate(self.bucket_counts):
            if bucket == 0:
                continue
            if running + bucket >= rank:
                # Interpolate inside this bucket, using the observed
                # min/max as edges where the nominal bound is unbounded
                # (+Inf bucket) or below the observed minimum.
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = self.bounds[index] if index < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return max(lower, self.min)
                fraction = (rank - running) / bucket
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            running += bucket
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary including the standard quantiles."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


_KIND_FACTORY = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label schema and per-labels children.

    An unlabeled family proxies its single default child, so ``family.inc()``
    / ``family.set()`` / ``family.observe()`` work directly.  For labeled
    counters and gauges, :attr:`value` sums over every child — convenient
    for "total across all labels" assertions.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KIND_FACTORY:
            raise ObservabilityError(f"unknown metric kind {kind!r}")
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ObservabilityError(f"invalid label name {label!r} on {name}")
        self.kind = kind
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _KIND_FACTORY[self.kind]()

    def labels(self, **labels: Any) -> Any:
        """The child instrument for this label combination (created lazily)."""
        if set(labels) != set(self.label_names):
            raise ObservabilityError(
                f"{self.name} expects labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def children(self) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels_dict, instrument)`` pairs, sorted by label values."""
        return [
            (dict(zip(self.label_names, key)), child)
            for key, child in sorted(self._children.items())
        ]

    # -- unlabeled convenience proxies ---------------------------------
    def _default(self) -> Any:
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def percentile(self, p: float) -> float:
        return self._default().percentile(p)

    @property
    def value(self) -> float:
        """The (summed, for labeled counters/gauges) scalar value."""
        if self.kind == "histogram":
            raise ObservabilityError(f"{self.name} is a histogram; use percentile()/children()")
        return sum(child.value for child in self._children.values())

    def __repr__(self) -> str:
        return f"MetricFamily({self.kind} {self.name}, children={len(self._children)})"


class MetricsRegistry:
    """Named metric families with JSON and Prometheus exposition.

    Declaring a name again returns its family; declaring it with another
    kind or other label names raises :class:`ObservabilityError`, so one
    scrape name never has two shapes.

    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_requests_total", "requests served").inc()
    >>> registry.counter("repro_requests_total").value
    1.0
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(
        self,
        kind: str,
        name: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ObservabilityError(
                    f"metric {name!r} already registered as {family.kind}, not {kind}"
                )
            if family.label_names != tuple(labels):
                raise ObservabilityError(
                    f"metric {name!r} already registered with labels "
                    f"{family.label_names}, not {tuple(labels)}"
                )
            return family
        family = MetricFamily(kind, name, help_text, labels, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create("gauge", name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._get_or_create("histogram", name, help_text, labels, buckets)

    def get(self, name: str) -> MetricFamily:
        """Look up a family; raises :class:`ObservabilityError` when absent."""
        try:
            return self._families[name]
        except KeyError:
            raise ObservabilityError(f"unknown metric {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready document: one entry per family."""
        document: Dict[str, Any] = {}
        for family in self.families():
            values = []
            for labels, child in family.children():
                if family.kind == "histogram":
                    entry: Dict[str, Any] = {"labels": labels}
                    entry.update(child.snapshot())
                else:
                    entry = {"labels": labels, "value": child.value}
                values.append(entry)
            document[family.name] = {
                "type": family.kind,
                "help": family.help_text,
                "values": values,
            }
        return document

    def to_prom_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help_text:
                lines.append(f"# HELP {family.name} {_escape_help(family.help_text)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.children():
                if family.kind == "histogram":
                    for bound, cumulative in child.cumulative():
                        le = "+Inf" if math.isinf(bound) else _format_value(bound)
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = le
                        lines.append(
                            f"{family.name}_bucket{_render_labels(bucket_labels)} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(labels)} {_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(labels)} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


# ----------------------------------------------------------------------
# Exposition parsing (for round-trip validation and scrape smoke tests)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    # A left-to-right scan, NOT chained str.replace calls: sequential
    # replaces corrupt adjacent escapes (the 4-char sequence for an
    # escaped backslash followed by "n" must not collapse into a
    # newline).  Each backslash consumes exactly one escape here, in the
    # same order _escape_label_value produced them.
    out: List[str] = []
    index = 0
    length = len(value)
    while index < length:
        char = value[index]
        if char == "\\" and index + 1 < length:
            escaped = value[index + 1]
            if escaped == "n":
                out.append("\n")
            elif escaped in ('"', "\\"):
                out.append(escaped)
            else:
                # Unknown escape: pass both characters through verbatim
                # (the exposition format reserves but does not define them).
                out.append(char)
                out.append(escaped)
            index += 2
            continue
        out.append(char)
        index += 1
    return "".join(out)


def parse_prom_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse Prometheus text exposition into families.

    Returns ``{family_name: {"type": ..., "help": ..., "samples": [...]}}``
    where each sample is ``(sample_name, labels_dict, value)``.  Histogram
    ``_bucket`` / ``_sum`` / ``_count`` samples attach to their family.
    Raises :class:`ObservabilityError` on malformed lines, which is what
    makes it usable as a scrape validator.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family_for(sample_name: str) -> Dict[str, Any]:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if trimmed and trimmed in families and families[trimmed]["type"] == "histogram":
                base = trimmed
                break
        return families.setdefault(base, {"type": "untyped", "help": "", "samples": []})

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("TYPE", "HELP"):
                name = parts[2]
                entry = families.setdefault(name, {"type": "untyped", "help": "", "samples": []})
                if parts[1] == "TYPE":
                    entry["type"] = parts[3] if len(parts) > 3 else "untyped"
                else:
                    entry["help"] = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(f"unparseable exposition line {line_number}: {raw!r}")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_text):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                consumed += 1
            if consumed == 0:
                raise ObservabilityError(
                    f"unparseable labels on line {line_number}: {label_text!r}"
                )
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ObservabilityError(
                f"non-numeric sample value on line {line_number}: {raw!r}"
            ) from None
        family_for(match.group("name"))["samples"].append(
            (match.group("name"), labels, value)
        )
    return families
