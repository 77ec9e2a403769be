"""Command-line front end: a matcher served over text request streams.

Usage::

    python -m repro.cli [serve] [options] [REQUEST_FILE ...]
    python -m repro.cli metrics [options] [REQUEST_FILE ...]
    python -m repro.cli trace [options] [REQUEST_FILE ...]
    python -m repro.cli analyze [options] [PATH ...]
    python -m repro.cli serve-metrics [options] [REQUEST_FILE ...]
    python -m repro.cli exemplars [options] [REQUEST_FILE ...]

``serve`` (the default when no subcommand is named) reads controller
requests (``ADD`` / ``CANCEL`` / ``MATCH`` / ``BATCH`` / ``METRICS`` /
``TRACE`` — see :mod:`repro.core.controller`) from the given files, or stdin when
none are given, and prints one response line per request.  This is
exactly the paper's section 6.1 deployment surface: "a local controller
has two input streams — one for subscriptions and one for events" — here
multiplexed onto one textual stream, as the paper's controller also
"parses requests and the raw data contained within".

``metrics`` replays the same request stream silently and then writes the
matcher's metrics to stdout — a valid JSON document by default, or
Prometheus text format with ``--format prom`` (scrapeable; see
docs/observability.md).  ``trace`` does the same but writes the last
match's trace tree (flame-style text by default, ``--format json`` for
the structured tree).  ``analyze`` runs fxlint, the project's static
checker, over the given paths (see docs/static_analysis.md); it is the
same entry point as ``python -m repro.analysis``.

``serve-metrics`` replays the stream with the full workload-introspection
stack attached (metrics + per-attribute heat + tail exemplars, and the
sampling profiler with ``--profile``), then serves it over HTTP —
``/metrics``, ``/profile``, ``/heat``, ``/exemplars``, ``/healthz`` (see
docs/profiling.md).  ``--once`` skips the socket and prints a single
JSON scrape of every attached surface, which is how the CI endpoint
smoke job drives it.  ``exemplars`` replays the stream with a tail-based
:class:`~repro.obs.exemplars.ExemplarStore` capturing every
above-quantile-latency match trace, then prints the store.

Shared options:

* ``--algorithm {fx-tm,be-star,fagin,fagin-augmented,naive}`` (default fx-tm)
* ``--prorate`` — enable Definition 2's prorated scoring
* ``--budget`` — enable budget-window tracking (Definition 4)
* ``--load SNAPSHOT`` — restore subscriptions before serving
* ``--save SNAPSHOT`` — write a snapshot after the stream ends

Example session::

    $ python -m repro.cli --prorate <<'EOF'
    ADD ad-1 age in [18, 24] : 2.0 and state in {Indiana} : 1.0
    MATCH 5 age: [20 .. 30], state: Indiana
    EOF
    ok ADD ad-1
    match [ad-1=1.800]
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Iterable, List, Optional, TextIO, Tuple

from repro.core.budget import BudgetTracker, LogicalClock
from repro.core.controller import LocalController, RequestKind
from repro.core.snapshot import restore_into, save_matcher
from repro.core.stats import InstrumentedMatcher
from repro.obs.tracing import Tracer

__all__ = ["build_parser", "serve", "main"]

#: Subcommands recognised by :func:`main`; anything else is ``serve``.
_SUBCOMMANDS = ("serve", "metrics", "trace", "analyze", "serve-metrics", "exemplars")


def _add_shared_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "request_files",
        nargs="*",
        metavar="REQUEST_FILE",
        help="request files to replay (default: read stdin)",
    )
    parser.add_argument(
        "--algorithm",
        default="fx-tm",
        choices=["fx-tm", "fx-tm-array", "be-star", "fagin", "fagin-augmented", "naive"],
        help="matching algorithm (default: fx-tm)",
    )
    parser.add_argument("--prorate", action="store_true", help="prorated interval scoring")
    parser.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "python", "numpy"],
        help="array-engine backend, fx-tm-array only (default: auto)",
    )
    parser.add_argument("--budget", action="store_true", help="budget window tracking")
    parser.add_argument("--load", metavar="SNAPSHOT", help="restore a snapshot first")
    parser.add_argument("--save", metavar="SNAPSHOT", help="save a snapshot at the end")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the default ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Serve top-k matching over textual request streams.",
    )
    _add_shared_arguments(parser)
    return parser


def _metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli metrics",
        description="Replay requests, then emit the metrics registry to stdout.",
    )
    _add_shared_arguments(parser)
    parser.add_argument(
        "--format",
        default="json",
        choices=["json", "prom"],
        help="exposition format (default: json)",
    )
    return parser


def _trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli trace",
        description="Replay requests, then emit the last match's trace tree.",
    )
    _add_shared_arguments(parser)
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="trace rendering (default: flame-style text)",
    )
    return parser


def _serve_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli serve-metrics",
        description="Replay requests, then serve the observability surface over HTTP.",
    )
    _add_shared_arguments(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (default: 0, ephemeral)"
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="print one JSON scrape of every surface and exit (no socket)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the sampling profiler while serving (exposed at /profile)",
    )
    return parser


def _exemplars_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli exemplars",
        description="Replay requests capturing slow-match exemplars, then print them.",
    )
    _add_shared_arguments(parser)
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="exemplar rendering (default: text)",
    )
    parser.add_argument(
        "--quantile",
        type=float,
        default=0.95,
        help="latency quantile above which a match is captured (default: 0.95)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=32,
        help="exemplar ring-buffer capacity (default: 32)",
    )
    return parser


def serve(
    lines: Iterable[str],
    controller: LocalController,
    out: TextIO,
) -> int:
    """Process request lines, writing one response line each.

    Returns the number of failed requests (the process exit code).
    """
    failures = 0
    for response in controller.run(lines):
        request = response.request
        if not response.ok:
            failures += 1
            out.write(f"error {response.error}\n")
        elif request.kind is RequestKind.MATCH:
            rendered = ", ".join(f"{r.sid}={r.score:.3f}" for r in response.results)
            out.write(f"match [{rendered}]\n")
        elif request.kind is RequestKind.BATCH:
            # One line per event, in request order, prefixed with its
            # position so clients can correlate results to events.
            for index, results in enumerate(response.batch_results):
                rendered = ", ".join(f"{r.sid}={r.score:.3f}" for r in results)
                out.write(f"batch[{index}] [{rendered}]\n")
        elif request.kind in (RequestKind.METRICS, RequestKind.TRACE):
            out.write(response.payload)
            if not response.payload.endswith("\n"):
                out.write("\n")
        elif request.kind in (RequestKind.ADD, RequestKind.CANCEL):
            out.write(f"ok {request.kind.value.upper()} {request.sid}\n")
        else:
            # Exhaustive over RequestKind: a member added to the protocol
            # without a branch here fails loudly instead of echoing a
            # bogus "ok" (tests/test_request_kinds.py runs every kind).
            failures += 1
            out.write(f"error unhandled request kind {request.kind.value}\n")
    return failures


def _build_matcher(args: argparse.Namespace) -> Tuple[object, InstrumentedMatcher]:
    from repro.bench.harness import ALGORITHMS

    kwargs = {"prorate": args.prorate}
    if args.algorithm == "fx-tm-array":
        kwargs["backend"] = args.backend
    if args.budget:
        kwargs["budget_tracker"] = BudgetTracker(clock=LogicalClock())
    matcher = ALGORITHMS[args.algorithm](**kwargs)
    if args.load:
        count = restore_into(matcher, args.load)
        print(f"loaded {count} subscriptions from {args.load}", file=sys.stderr)
    return matcher, InstrumentedMatcher(matcher)


def _replay(args: argparse.Namespace, controller: LocalController, out: TextIO) -> int:
    failures = 0
    if args.request_files:
        for path in args.request_files:
            with open(path, "r", encoding="utf-8") as handle:
                failures += serve(handle, controller, out)
    else:
        failures += serve(sys.stdin, controller, out)
    return failures


def _finish(args: argparse.Namespace, matcher) -> None:
    if args.save:
        count = save_matcher(matcher, args.save)
        print(f"saved {count} subscriptions to {args.save}", file=sys.stderr)


def _replay_silently(args: argparse.Namespace, controller: LocalController) -> int:
    """Replay the stream discarding responses; request errors go to stderr."""
    discard = io.StringIO()
    failures = _replay(args, controller, discard)
    if failures:
        for line in discard.getvalue().splitlines():
            if line.startswith("error "):
                print(line, file=sys.stderr)
    return failures


def _main_serve(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)
    matcher, instrumented = _build_matcher(args)
    # Attach the tracer to the matcher too, so an inline TRACE request
    # can replay the spans of the MATCHes that preceded it.
    tracer = Tracer()
    instrumented.tracer = tracer
    controller = LocalController(instrumented, tracer=tracer)
    failures = _replay(args, controller, sys.stdout)
    _finish(args, matcher)
    return 1 if failures else 0


def _main_metrics(argv: List[str]) -> int:
    """Replay quietly, then expose the registry on stdout (satellite 2).

    Stdout carries *only* the exposition, so ``repro metrics`` pipes
    straight into ``json.loads`` and ``repro metrics --format prom``
    into any Prometheus text-format parser; request errors go to stderr.
    """
    args = _metrics_parser().parse_args(argv)
    matcher, instrumented = _build_matcher(args)
    controller = LocalController(instrumented)
    failures = _replay_silently(args, controller)
    _finish(args, matcher)
    registry = instrumented.registry
    if args.format == "prom":
        sys.stdout.write(registry.to_prom_text())
    else:
        json.dump(registry.snapshot(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 1 if failures else 0


def _main_trace(argv: List[str]) -> int:
    args = _trace_parser().parse_args(argv)
    matcher, instrumented = _build_matcher(args)
    tracer = Tracer()
    instrumented.tracer = tracer
    controller = LocalController(instrumented, tracer=tracer)
    failures = _replay_silently(args, controller)
    _finish(args, matcher)
    if tracer.last_trace is None:
        print("no traces recorded (the stream had no MATCH request)", file=sys.stderr)
        return 1
    if args.format == "json":
        json.dump(tracer.to_json(), sys.stdout, indent=2)
    else:
        sys.stdout.write(tracer.render())
    sys.stdout.write("\n")
    return 1 if failures else 0


def _main_serve_metrics(argv: List[str]) -> int:
    """Replay, then expose the workload-introspection stack over HTTP.

    The matcher runs with per-attribute heat accounting and a tail-based
    exemplar store attached; ``--profile`` adds the sampling profiler.
    With ``--once`` no socket is opened — a single JSON document holding
    one scrape of every attached surface goes to stdout instead, so CI
    can smoke-test the exposition without port management.
    """
    import threading

    from repro.obs.exemplars import ExemplarStore
    from repro.obs.heat import HeatMonitor
    from repro.obs.profile import SamplingProfiler
    from repro.obs.server import ObservabilityServer

    args = _serve_metrics_parser().parse_args(argv)
    matcher, instrumented = _build_matcher(args)
    tracer = Tracer()
    instrumented.tracer = tracer
    heat = HeatMonitor(registry=instrumented.registry)
    matcher.heat = heat
    exemplars = ExemplarStore(min_samples=1)
    instrumented.exemplars = exemplars
    profiler = SamplingProfiler() if args.profile else None
    if profiler is not None:
        profiler.start()
    controller = LocalController(instrumented, tracer=tracer)
    failures = _replay_silently(args, controller)
    _finish(args, matcher)
    server = ObservabilityServer(
        registry=instrumented.registry,
        profiler=profiler,
        heat=heat,
        exemplars=exemplars,
        host=args.host,
        port=args.port,
    )
    if args.once:
        if profiler is not None:
            profiler.stop()
        scrape = {}
        for route in ("/healthz", "/metrics", "/profile", "/heat", "/exemplars"):
            status, _, body = server.handle(route)
            if status == 200:
                scrape[route.lstrip("/")] = body
        json.dump(scrape, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 1 if failures else 0
    server.start()
    print(f"serving observability endpoint at {server.url}", file=sys.stderr)
    print(server.url, flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if profiler is not None:
            profiler.stop()
    return 0


def _main_exemplars(argv: List[str]) -> int:
    """Replay with tail-exemplar capture, then print the store."""
    from repro.obs.exemplars import ExemplarStore

    args = _exemplars_parser().parse_args(argv)
    matcher, instrumented = _build_matcher(args)
    tracer = Tracer()
    instrumented.tracer = tracer
    instrumented.exemplars = ExemplarStore(
        capacity=args.capacity, quantile=args.quantile, min_samples=1
    )
    controller = LocalController(instrumented, tracer=tracer)
    failures = _replay_silently(args, controller)
    _finish(args, matcher)
    if args.format == "json":
        json.dump(instrumented.exemplars.snapshot(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(instrumented.exemplars.render())
        sys.stdout.write("\n")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to a subcommand; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
        if command == "metrics":
            return _main_metrics(rest)
        if command == "trace":
            return _main_trace(rest)
        if command == "serve-metrics":
            return _main_serve_metrics(rest)
        if command == "exemplars":
            return _main_exemplars(rest)
        if command == "analyze":
            from repro.analysis.cli import main as fxlint_main

            return fxlint_main(rest)
        return _main_serve(rest)
    return _main_serve(argv)


if __name__ == "__main__":
    sys.exit(main())
