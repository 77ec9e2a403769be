"""repro.obs — dependency-free observability: metrics, tracing, logging.

The cross-cutting layer documented in docs/observability.md:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauges, and bucketed histograms with quantile estimates,
  exposable as JSON or Prometheus text (and parseable back);
* :mod:`repro.obs.tracing` — a :class:`Tracer` of nested spans covering
  the FX-TM match pipeline and every distributed hop, exportable as JSON
  trace trees or a flame-style text summary;
* :mod:`repro.obs.logging` — a :class:`StructuredLogger` emitting
  JSON-line runtime events (failure detection, recovery, degradation)
  into a bounded ring buffer and an optional stream.

The workload-introspection subsystem (docs/profiling.md):

* :mod:`repro.obs.profile` — a :class:`SamplingProfiler` attributing
  background stack samples to match-pipeline phases and module buckets;
* :mod:`repro.obs.heat` — a :class:`HeatMonitor` accumulating
  per-attribute probe/scan/cache heat into a :class:`WorkloadProfile`;
* :mod:`repro.obs.exemplars` — an :class:`ExemplarStore` retaining trace
  trees of tail-latency and degraded matches;
* :mod:`repro.obs.server` — an :class:`ObservabilityServer` exposing all
  of the above over HTTP (``/metrics``, ``/profile``, ``/heat``,
  ``/exemplars``, ``/healthz``).
"""

from repro.obs.exemplars import Exemplar, ExemplarStore
from repro.obs.heat import AttributeHeat, HeatMonitor, RegionHistogram, WorkloadProfile
from repro.obs.logging import LEVELS, StructuredLogger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    parse_prom_text,
)
from repro.obs.profile import PHASE_OF_FRAME, SamplingProfiler
from repro.obs.server import PROM_CONTENT_TYPE, ObservabilityServer
from repro.obs.tracing import SPAN_NAMES, Span, Tracer, aggregate_phases

__all__ = [
    "AttributeHeat",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Exemplar",
    "ExemplarStore",
    "Gauge",
    "HeatMonitor",
    "Histogram",
    "LEVELS",
    "MetricFamily",
    "MetricsRegistry",
    "ObservabilityServer",
    "PHASE_OF_FRAME",
    "PROM_CONTENT_TYPE",
    "RegionHistogram",
    "SPAN_NAMES",
    "SamplingProfiler",
    "Span",
    "StructuredLogger",
    "Tracer",
    "WorkloadProfile",
    "aggregate_phases",
    "parse_prom_text",
]
