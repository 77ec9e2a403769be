"""The local controller (paper section 6.1).

    "A local controller has two input streams — one for subscriptions and
    one for events.  The controller parses requests (add subscription,
    remove subscription, get top-k matches) and the raw data contained
    within.  The controller processes the request by updating the local
    data ... and returning the matches if applicable.  The top-k
    algorithm component has its own API ... and is interchangeable."

:class:`LocalController` implements that component: it consumes textual
requests (or structured :class:`Request` objects) and drives any
:class:`~repro.core.interfaces.TopKMatcher` — the interchangeable
algorithm component.  Textual request forms::

    ADD <sid> <predicate> [BUDGET <amount> WINDOW <length>]
    CANCEL <sid>
    MATCH <k> <event>
    BATCH <k> <event> [; <event> ...]
    METRICS [json|prom]
    TRACE [json|text]

BATCH extends the paper's protocol with batched matching: the events are
matched in order through :meth:`TopKMatcher.match_batch` (one pass,
shared probe cache) and the response carries one result list per event.
``;`` is safe as the separator because the event grammar has no
semicolon token.

Responses are :class:`Response` objects carrying the outcome (and, for
MATCH, the top-k results).  METRICS and TRACE extend the paper's
protocol with the observability surface (docs/observability.md): they
return a textual ``payload`` — a metrics exposition or a trace tree —
instead of match results.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.budget import BudgetWindowSpec
from repro.core.interfaces import TopKMatcher
from repro.core.parser import ParseError, parse_event, parse_subscription
from repro.core.results import MatchResult
from repro.errors import ObservabilityError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = [
    "RequestKind", "Request", "Response", "LocalController", "render_introspection",
]


class RequestKind(enum.Enum):
    """The paper's three request types plus the observability surface."""

    ADD = "add"
    CANCEL = "cancel"
    MATCH = "match"
    BATCH = "batch"
    METRICS = "metrics"
    TRACE = "trace"


#: Valid ``fmt`` values per introspection request kind.
_FMT_CHOICES = {
    RequestKind.METRICS: ("json", "prom"),
    RequestKind.TRACE: ("json", "text"),
}


@dataclass(frozen=True)
class Request:
    """A parsed controller request."""

    kind: RequestKind
    sid: Any = None
    predicate: str = ""
    k: int = 0
    event_text: str = ""
    #: The batch's event texts, in match order (BATCH requests only).
    event_texts: Tuple[str, ...] = ()
    budget: Optional[BudgetWindowSpec] = None
    #: Exposition format for METRICS ("json"/"prom") and TRACE
    #: ("json"/"text"); ignored by the other kinds.
    fmt: str = "json"


@dataclass
class Response:
    """The controller's reply to one request."""

    ok: bool
    request: Request
    results: List[MatchResult] = field(default_factory=list)
    error: str = ""
    #: Rendered exposition for METRICS/TRACE requests ("" otherwise).
    payload: str = ""
    #: One result list per event, in request order (BATCH requests only).
    batch_results: List[List[MatchResult]] = field(default_factory=list)


class LocalController:
    """Parses requests and drives the interchangeable matcher component.

    >>> from repro.core.matcher import FXTMMatcher
    >>> controller = LocalController(FXTMMatcher())
    >>> controller.submit("ADD ad-1 age in [18, 24] : 2.0").ok
    True
    >>> response = controller.submit("MATCH 1 age: [20 .. 22]")
    >>> response.results[0].sid
    'ad-1'
    """

    def __init__(
        self,
        matcher: TopKMatcher,
        registry: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.matcher = matcher
        #: Registry served by METRICS requests; falls back to the
        #: matcher's own (e.g. an :class:`InstrumentedMatcher`'s).
        self.registry = registry
        #: Tracer served by TRACE requests; falls back to the matcher's.
        self.tracer = tracer
        self.requests_processed = 0
        self.requests_failed = 0

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    @staticmethod
    def parse_request(line: str) -> Request:
        """Parse one textual request line.

        Raises :class:`~repro.core.parser.ParseError` on malformed input.
        """
        stripped = line.strip()
        if not stripped:
            raise ParseError("empty request", line, 0)
        head, _, rest = stripped.partition(" ")
        command = head.upper()
        if command == "ADD":
            sid, _, body = rest.strip().partition(" ")
            if not sid or not body.strip():
                raise ParseError("ADD needs '<sid> <predicate>'", line, len(head))
            predicate, budget = LocalController._split_budget(body.strip(), line)
            return Request(RequestKind.ADD, sid=sid, predicate=predicate, budget=budget)
        if command == "CANCEL":
            sid = rest.strip()
            if not sid:
                raise ParseError("CANCEL needs '<sid>'", line, len(head))
            return Request(RequestKind.CANCEL, sid=sid)
        if command == "MATCH":
            k_text, _, event_text = rest.strip().partition(" ")
            try:
                k = int(k_text)
            except ValueError:
                raise ParseError("MATCH needs '<k> <event>'", line, len(head)) from None
            if not event_text.strip():
                raise ParseError("MATCH needs an event after k", line, len(head))
            return Request(RequestKind.MATCH, k=k, event_text=event_text.strip())
        if command == "BATCH":
            k_text, _, events_text = rest.strip().partition(" ")
            try:
                k = int(k_text)
            except ValueError:
                raise ParseError(
                    "BATCH needs '<k> <event> [; <event> ...]'", line, len(head)
                ) from None
            texts = tuple(text.strip() for text in events_text.split(";"))
            if not events_text.strip() or not all(texts):
                raise ParseError(
                    "BATCH needs ';'-separated events after k", line, len(head)
                )
            return Request(RequestKind.BATCH, k=k, event_texts=texts)
        if command in ("METRICS", "TRACE"):
            kind = RequestKind.METRICS if command == "METRICS" else RequestKind.TRACE
            choices = _FMT_CHOICES[kind]
            fmt = rest.strip().lower() or choices[0]
            if fmt not in choices:
                raise ParseError(
                    f"{command} format must be one of {'/'.join(choices)}",
                    line, len(head),
                )
            return Request(kind, fmt=fmt)
        raise ParseError(f"unknown command {head!r}", line, 0)

    @staticmethod
    def _split_budget(body: str, line: str) -> "tuple[str, Optional[BudgetWindowSpec]]":
        """Split a trailing ``BUDGET <amount> WINDOW <length>`` clause."""
        upper = body.upper()
        marker = upper.rfind(" BUDGET ")
        if marker < 0:
            return body, None
        predicate = body[:marker].strip()
        clause = body[marker:].split()
        if len(clause) != 4 or clause[0].upper() != "BUDGET" or clause[2].upper() != "WINDOW":
            raise ParseError("budget clause must be 'BUDGET <amount> WINDOW <length>'", line, marker)
        try:
            amount = float(clause[1])
            window = float(clause[3])
        except ValueError:
            raise ParseError("budget amount and window must be numeric", line, marker) from None
        return predicate, BudgetWindowSpec(budget=amount, window_length=window)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def submit(self, line: str) -> Response:
        """Parse and process one textual request."""
        try:
            request = self.parse_request(line)
        except ParseError as error:
            self.requests_failed += 1
            return Response(ok=False, request=Request(RequestKind.MATCH), error=str(error))
        return self.process(request)

    def process(self, request: Request) -> Response:
        """Process a structured request against the matcher."""
        self.requests_processed += 1
        try:
            if request.kind is RequestKind.ADD:
                subscription = parse_subscription(
                    request.sid, request.predicate, budget=request.budget
                )
                self.matcher.add_subscription(subscription)
                return Response(ok=True, request=request)
            if request.kind is RequestKind.CANCEL:
                self.matcher.cancel_subscription(request.sid)
                return Response(ok=True, request=request)
            if request.kind in (RequestKind.METRICS, RequestKind.TRACE):
                payload = render_introspection(
                    request,
                    self.registry or getattr(self.matcher, "registry", None),
                    self.tracer or getattr(self.matcher, "tracer", None),
                )
                return Response(ok=True, request=request, payload=payload)
            if request.kind is RequestKind.BATCH:
                events = [parse_event(text) for text in request.event_texts]
                batches = self.matcher.match_batch(events, request.k)
                return Response(ok=True, request=request, batch_results=batches)
            event = parse_event(request.event_text)
            results = self.matcher.match(event, request.k)
            return Response(ok=True, request=request, results=results)
        except ReproError as error:
            self.requests_failed += 1
            return Response(ok=False, request=request, error=str(error))

    def run(self, lines: Iterable[str]) -> Iterator[Response]:
        """Process a stream of request lines, yielding responses.

        Blank lines and ``#`` comments are skipped — convenient for
        replaying request files.
        """
        for line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield self.submit(stripped)


def render_introspection(
    request: Request, registry: Optional[MetricsRegistry], tracer: Optional[Tracer]
) -> str:
    """The payload of a METRICS or TRACE request, for either controller.

    METRICS renders ``registry`` as JSON or Prometheus text; TRACE
    renders ``tracer``'s last trace as JSON or a flame-style tree.
    Raises :class:`~repro.errors.ObservabilityError` when there is
    nothing to expose, which the controllers answer as a failed request.
    """
    if request.kind is RequestKind.METRICS:
        if registry is None:
            raise ObservabilityError(
                "no metrics registry attached (wrap the matcher in "
                "InstrumentedMatcher or pass registry=)"
            )
        if request.fmt == "prom":
            return registry.to_prom_text()
        return json.dumps(registry.snapshot(), indent=2, sort_keys=True)
    if tracer is None:
        raise ObservabilityError(
            "no tracer attached (pass tracer= to the controller, the matcher "
            "or the distributed system)"
        )
    if tracer.last_trace is None:
        raise ObservabilityError("no traces recorded yet")
    if request.fmt == "text":
        return tracer.render()
    return json.dumps(tracer.to_json(), indent=2)
