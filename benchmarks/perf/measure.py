"""Run one workload in this process and print its result.

Usage (``run.py`` starts this in a subprocess with ``PYTHONHASHSEED=0``
and ``src`` on ``PYTHONPATH``)::

    python benchmarks/perf/measure.py --workload NAME --seed S --seconds T --trace 0|1

The load is closed-loop: one client on one thread sends each request line
through the controller's ``submit`` after the previous response returned.
A run generates its inputs from the seed, loads the setup lines
``SETUP_REPEATS`` times into fresh systems (reporting the median), sends
``WARMUP`` untimed requests, then measures for ``--seconds`` (and at least
``DIGEST_REQUESTS`` requests).  The ``naive`` oracle then checks a prefix
of the responses.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the run loads once, measures the same way, then replays
setup, warm-up and the first quarter of the measured requests on a fresh
system with wrappers installed (``layers.TARGETS``) and reports the
per-layer metrics.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes:
0 when every response checked out, 1 when any failed or disagreed with
the oracle, 2 when the environment cannot run the workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bench.memory import storage_bytes
from repro.structures.soa import numpy_available

import layers
import oracle
from spans import SpanRecorder, tracing
from workloads import WORKLOADS, Instance, Workload, ensure_built, leaf_matchers

SETUP_REPEATS = 3
WARMUP = 16
#: Measured requests every run sends, whatever ``--seconds`` says; their
#: responses (with the warm-up's) form the digest, so it is comparable.
DIGEST_REQUESTS = 100
#: Timings are summarised per window of consecutive requests, and the
#: lower quartile over the windows is reported.  Other tenants of the
#: machine slow it for seconds at a time, which only ever adds time.  Over
#: 16 runs on a shared 2-core VM the spread (IQR/median) of a statistic
#: pooled over the whole run averaged 20%, of the median window 16%, and
#: of the lower-quartile window 12%.
WINDOWS = 20

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("req_per_s", "req/s", "higher"),
    ("match_p50_ms", "ms", "lower"),
    ("match_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class SetupError(RuntimeError):
    """A setup line was rejected: the inputs are broken, not slow."""


class Unavailable(RuntimeError):
    """The environment lacks what the workload's system needs."""


def _is_write(line: str) -> bool:
    return line.startswith(("ADD ", "CANCEL "))


def _events_in(line: str) -> int:
    return line.count(";") + 1 if line.startswith("BATCH ") else int(line.startswith("MATCH "))


def load(controller: Any, lines: List[str]) -> None:
    """Submit every setup line; raise :class:`SetupError` on the first rejected one."""
    for number, line in enumerate(lines):
        response = controller.submit(line)
        if not response.ok:
            raise SetupError(f"setup line {number} rejected: {response.error}")


def loaded_subscriptions(controller: Any) -> List[Any]:
    """The subscriptions a system parsed from its setup lines, each once."""
    merged: Dict[Any, Any] = {}
    for matcher in leaf_matchers(controller):
        merged.update(matcher.subscriptions)
    return list(merged.values())


class Measured:
    """The measured phase: every request line sent, and what came back."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.seconds: List[float] = []
        #: Responses of the first ``DIGEST_REQUESTS`` requests.
        self.responses: List[Any] = []
        self.not_ok = 0
        self.sim_total: List[float] = []
        self.sim_aggregation: List[float] = []
        self.coverage: List[float] = []

    def run(self, controller: Any, stream: Iterator[str], seconds: float) -> None:
        """Send requests until ``seconds`` passed and ``DIGEST_REQUESTS`` were sent."""
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            line = next(stream)
            start = clock()
            response = controller.submit(line)
            self.seconds.append(clock() - start)
            self.lines.append(line)
            if not response.ok:
                self.not_ok += 1
            if len(self.responses) < DIGEST_REQUESTS:
                self.responses.append(response)
            outcome = getattr(response, "outcome", None)
            if outcome is not None:
                self.sim_total.append(outcome.total_seconds)
                self.sim_aggregation.append(outcome.aggregation_seconds)
                self.coverage.append(outcome.coverage)
            if start >= deadline and len(self.lines) >= DIGEST_REQUESTS:
                return


def check_with_oracle(
    workload: Workload,
    instance: Instance,
    subscriptions: List[Any],
    warmup: List[str],
    warm: List[Any],
    measured: Measured,
) -> Tuple[int, int]:
    """Replay a prefix through a fresh ``naive`` controller; ``(checked, mismatches)``.

    The oracle starts from ``subscriptions``, the ones the system parsed
    from the setup lines: parsing the lines again would build equal
    objects and double the cost of loading.  A read-only workload's
    responses do not depend on earlier requests, so only the checked
    measured requests are replayed; otherwise the warm-up is replayed
    (and checked) first.
    """
    controller = instance.new_oracle()
    for subscription in subscriptions:
        controller.matcher.add_subscription(subscription)
    count = min(workload.oracle_requests, len(measured.lines))
    pairs = list(zip(measured.lines[:count], measured.responses[:count]))
    if not instance.read_only:
        pairs = list(zip(warmup, warm)) + pairs
    mismatches = sum(
        not oracle.same_response(got, controller.submit(line)) for line, got in pairs
    )
    return len(pairs), mismatches


def fingerprint() -> Dict[str, Any]:
    """Where the numbers came from: commit, interpreter, numpy, cores."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _windowed(seconds: List[float], percent: Optional[int] = None) -> float:
    """Lower quartile over ``WINDOWS`` consecutive windows of each window's
    ``percent`` percentile of ``seconds`` (its mean when ``percent`` is None)."""
    size = max(2, len(seconds) // WINDOWS)
    values = sorted(
        statistics.fmean(window) if percent is None else layers.percentile(window, percent)
        for window in (seconds[start:start + size] for start in range(0, len(seconds) - size + 1, size))
    )
    return values[len(values) // 4]


def run(
    workload: Workload,
    seed: Optional[int],
    seconds: float,
    trace: bool,
    n: Optional[int] = None,
    out_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run ``workload`` once; return the result object (see module docstring).

    ``n`` overrides the subscription count (the tests run tiny
    instances); ``out_dir`` receives the run's report and, when traced,
    its spans.
    """
    if workload.requires_numpy and not numpy_available():
        raise Unavailable(f"{workload.name} runs the numpy backend and numpy is not importable")
    seed = workload.default_seed if seed is None else seed
    instance = workload.instance(seed, n)
    setup_lines = instance.setup_lines
    stream = instance.requests()
    warmup = [next(stream) for _ in range(WARMUP)]
    # Inputs are generated; from here on the collector should scan the
    # program's objects, not the benchmark's input lists.
    gc.collect()
    gc.freeze()

    setup_seconds: List[float] = []
    controller = None
    storage_per_sub = 0.0
    for _ in range(1 if trace else SETUP_REPEATS):
        controller = None
        gc.collect()
        started = time.perf_counter()
        controller = instance.new_system()
        load(controller, setup_lines)
        ensure_built(controller)
        setup_seconds.append(time.perf_counter() - started)
    subscriptions = loaded_subscriptions(controller)
    if trace:
        total = sum(storage_bytes(matcher) for matcher in leaf_matchers(controller))
        storage_per_sub = total / len(setup_lines)

    warm = [controller.submit(line) for line in warmup]
    measured = Measured()
    measured.run(controller, stream, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    controller = None

    checked, mismatches = check_with_oracle(
        workload, instance, subscriptions, warmup, warm, measured
    )
    failed = measured.not_ok + mismatches
    attempted = len(measured.lines)
    match_seconds = [s for line, s in zip(measured.lines, measured.seconds) if not _is_write(line)]
    write_seconds = [s for line, s in zip(measured.lines, measured.seconds) if _is_write(line)]

    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "n": len(setup_lines),
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(),
        "digest": oracle.digest(warm + measured.responses),
        "oracle_checked": checked,
        "oracle_mismatches": mismatches,
        "fail_frac": failed / attempted,
        "match_p99_ms": layers.percentile(match_seconds, 99) * 1e3,
        "samples": {
            "match": len(match_seconds),
            "write": len(write_seconds),
            "setup_repeats": len(setup_seconds),
        },
    }
    if trace:
        recorder, traced = _traced_pass(instance, warmup, measured)
        layer = layers.layer_metrics(
            layers.TracedRun(
                spans=recorder.spans,
                counts=traced["counts"],
                requests=len(traced["seconds"]),
                events=sum(_events_in(line) for line in traced["lines"]),
                results=sum(
                    len(results)
                    for response in traced["responses"]
                    for results in oracle.result_lists(response)
                ),
                traced_seconds=traced["seconds"],
                untraced_seconds=measured.seconds[: len(traced["seconds"])],
                storage_bytes_per_sub=storage_per_sub,
                write_seconds=write_seconds,
                sim_total_seconds=measured.sim_total,
                sim_aggregation_seconds=measured.sim_aggregation,
                coverage=measured.coverage,
            )
        )
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
        if out_dir is not None:
            _write(out_dir / f"{workload.name}-{seed}-spans.json", recorder.spans)
    else:
        values = {
            "setup_s": statistics.median(setup_seconds),
            "req_per_s": 1.0 / _windowed(measured.seconds),
            "match_p50_ms": _windowed(match_seconds, 50) * 1e3,
            "match_p90_ms": _windowed(match_seconds, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if out_dir is not None:
        _write(out_dir / f"{workload.name}-{seed}-trace{int(trace)}.json", dict(report, **result))
    result["report"] = report
    return result


def _traced_pass(
    instance: Instance, warmup: List[str], measured: Measured
) -> Tuple[SpanRecorder, Dict[str, Any]]:
    """Replay setup, warm-up and a quarter of the measured requests, traced."""
    gc.collect()
    lines = measured.lines[: max(1, len(measured.lines) // 4)]
    recorder = SpanRecorder()
    seconds: List[float] = []
    responses: List[Any] = []
    clock = time.perf_counter
    with tracing(recorder, layers.TARGETS):
        controller = instance.new_system()
        load(controller, instance.setup_lines)
        ensure_built(controller)
        for number, line in enumerate(warmup):
            recorder.request_id = number - len(warmup)
            controller.submit(line)
        before = Counter(recorder.counts)
        for number, line in enumerate(lines):
            recorder.request_id = number
            start = clock()
            responses.append(controller.submit(line))
            seconds.append(clock() - start)
        recorder.request_id = None
        counts = recorder.counts - before
    return recorder, {"lines": lines, "seconds": seconds, "responses": responses, "counts": counts}


def _write(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle)


def print_result(result: Dict[str, Any]) -> None:
    """Print a readable summary, then the result object as the last line."""
    report = result["report"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  n {report['n']}  "
        f"seconds {report['seconds']}  trace {report['trace']}"
    )
    print(f"fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:14.4f} {metric['unit']}")
    samples = report["samples"]
    print(
        f"  requests {result['attempted']}  failed {result['failed']}  "
        f"fail_frac {report['fail_frac']:.4f}  match_p99_ms {report['match_p99_ms']:.3f}  "
        f"samples match={samples['match']} write={samples['write']}"
    )
    print(
        f"  oracle checked {report['oracle_checked']} responses, "
        f"{report['oracle_mismatches']} mismatches; digest {report['digest']}"
    )
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run one workload, print its result."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            out_dir=HERE / "out",
        )
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Unavailable as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
