"""The distributed controller: the LOOM controller's request surface.

Paper section 6.2: "The LOOM controller receives events for the system
and forwards each event to every local controller to begin the matching
process.  ...  We use a simple script on the LOOM controller to
distribute subscriptions evenly amongst nodes."

:class:`DistributedController` gives the
:class:`~repro.distributed.cluster.DistributedTopKSystem` the same
textual ADD/CANCEL/MATCH protocol the local controller speaks
(:mod:`repro.core.controller`), so a deployment can swap a single node
for a cluster without changing its client protocol.  The METRICS and
TRACE introspection requests are served from the cluster's own registry
and tracer (docs/observability.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional

from repro.core.controller import (
    LocalController,
    Request,
    RequestKind,
    render_introspection,
)
from repro.core.parser import ParseError, parse_event, parse_subscription
from repro.core.results import MatchResult
from repro.distributed.cluster import (
    DistributedBatchOutcome,
    DistributedMatchOutcome,
    DistributedTopKSystem,
)
from repro.errors import ReproError

__all__ = ["DistributedResponse", "DistributedController"]


@dataclass
class DistributedResponse:
    """The distributed controller's reply to one request."""

    ok: bool
    request: Request
    results: List[MatchResult] = field(default_factory=list)
    error: str = ""
    #: Rendered exposition for METRICS/TRACE requests ("" otherwise).
    payload: str = ""
    #: Simulation record for MATCH requests (None otherwise).
    outcome: Optional[DistributedMatchOutcome] = None
    #: One result list per event, in request order (BATCH requests only).
    batch_results: List[List[MatchResult]] = field(default_factory=list)
    #: Simulation record for BATCH requests (None otherwise).
    batch_outcome: Optional[DistributedBatchOutcome] = None
    #: For MATCH requests: whether some subscriptions were unreachable
    #: (the answer is still served, ``ok`` stays True — degradation is a
    #: quality signal, not a failure).
    degraded: bool = False
    #: Fraction of subscriptions reachable for this MATCH (1.0 otherwise).
    coverage: float = 1.0


class DistributedController:
    """Parses requests and drives a distributed top-k system.

    Reuses :meth:`LocalController.parse_request` verbatim — the protocol
    is identical; only the execution substrate differs.
    """

    def __init__(
        self,
        system: DistributedTopKSystem,
        logger: Optional[Any] = None,
    ) -> None:
        self.system = system
        #: Structured logger for rejected requests; defaults to the
        #: cluster's own logger so error-path events land in the same
        #: ring buffer operators already scrape (docs/observability.md).
        source = logger if logger is not None else system.logger
        self.logger = (
            source.child(component="controller") if source is not None else None
        )
        self.requests_processed = 0
        self.requests_failed = 0
        #: MATCH requests answered from a partial (degraded) cluster.
        self.matches_degraded = 0

    def submit(self, line: str) -> DistributedResponse:
        """Parse and process one textual request line."""
        try:
            request = LocalController.parse_request(line)
        except ParseError as error:
            self.requests_failed += 1
            if self.logger is not None:
                self.logger.warning("controller.parse_error", error=str(error))
            return DistributedResponse(
                ok=False, request=Request(RequestKind.MATCH), error=str(error)
            )
        return self.process(request)

    def process(self, request: Request) -> DistributedResponse:
        """Process a structured request against the cluster."""
        self.requests_processed += 1
        try:
            if request.kind is RequestKind.ADD:
                subscription = parse_subscription(
                    request.sid, request.predicate, budget=request.budget
                )
                self.system.add_subscription(subscription)
                return DistributedResponse(ok=True, request=request)
            if request.kind is RequestKind.CANCEL:
                self.system.cancel_subscription(request.sid)
                return DistributedResponse(ok=True, request=request)
            if request.kind in (RequestKind.METRICS, RequestKind.TRACE):
                payload = render_introspection(
                    request, self.system.registry, self.system.tracer
                )
                return DistributedResponse(ok=True, request=request, payload=payload)
            if request.kind is RequestKind.BATCH:
                events = [parse_event(text) for text in request.event_texts]
                batch_outcome = self.system.match_batch(events, request.k)
                if batch_outcome.degraded:
                    self.matches_degraded += 1
                return DistributedResponse(
                    ok=True,
                    request=request,
                    batch_results=batch_outcome.results,
                    batch_outcome=batch_outcome,
                    degraded=batch_outcome.degraded,
                    coverage=batch_outcome.coverage,
                )
            event = parse_event(request.event_text)
            outcome = self.system.match(event, request.k)
            if outcome.degraded:
                self.matches_degraded += 1
            return DistributedResponse(
                ok=True,
                request=request,
                results=outcome.results,
                outcome=outcome,
                degraded=outcome.degraded,
                coverage=outcome.coverage,
            )
        except ReproError as error:
            self.requests_failed += 1
            if self.logger is not None:
                self.logger.error(
                    "controller.request_failed",
                    kind=request.kind.value,
                    error=str(error),
                )
            return DistributedResponse(ok=False, request=request, error=str(error))

    def run(self, lines: Iterable[str]) -> Iterator[DistributedResponse]:
        """Process a stream of request lines (skipping blanks/comments)."""
        for line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield self.submit(stripped)

    def observability_server(
        self,
        profiler: Optional[Any] = None,
        heat: Optional[Any] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> Any:
        """An (unstarted) HTTP endpoint exposing the whole cluster.

        The root registry serves at ``/metrics``; every leaf whose
        matcher is instrumented (wrapped in
        :class:`~repro.core.stats.InstrumentedMatcher`) serves its own
        registry at ``/metrics/leaf-<id>``, so per-leaf skew is
        scrapeable alongside the cluster aggregate.  The system's
        exemplar store (when attached) backs ``/exemplars``.  Call
        ``start()`` on the result; ``stop()`` when done.
        """
        from repro.obs.server import ObservabilityServer

        extra = {}
        for node in self.system.nodes:
            registry = getattr(node.matcher, "registry", None)
            if registry is not None:
                extra[f"leaf-{node.node_id}"] = registry
        return ObservabilityServer(
            registry=self.system.registry,
            profiler=profiler,
            heat=heat,
            exemplars=getattr(self.system, "exemplars", None),
            extra_registries=extra,
            host=host,
            port=port,
        )
