"""CI gate: the array engine must beat reference FX-TM on single matches.

Sweeps subscription count N over Figure 3's micro workload and drives
the same single-event match loop through three engines:

* the reference ``fx-tm`` matcher,
* ``fx-tm-array`` on the pure-python backend,
* ``fx-tm-array`` on the numpy backend (skipped when numpy is absent).

Per N the rounds are interleaved and the per-engine *best* throughput
kept, discarding scheduler noise rather than averaging it in.  The gate
fails unless, at every swept N:

* the pure-python array engine reaches ``--threshold`` (default 1.5x)
  the reference events/second, and
* the numpy backend reaches ``--numpy-slack`` (default 0.9) of the
  pure-python ratio — i.e. enabling numpy may only improve throughput,
  up to measurement noise.

Before timing, each array engine's results are checked equal to the
reference's (sids, order, and scores via ``==``) on the event pool, so
a fast-but-wrong engine cannot pass the gate.  The measured numbers are
emitted on one machine-readable line prefixed ``BENCH``::

    BENCH {"benchmark": "array_engine", "points": [...], ...}

Usage::

    PYTHONPATH=src python benchmarks/bench_array_engine.py
    PYTHONPATH=src python benchmarks/bench_array_engine.py \
        --n 1000 --n 4000 --events 64 --repeats 3 --threshold 1.5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.bench.harness import load_subscriptions, make_matcher
from repro.structures.soa import numpy_available
from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig

DEFAULT_SWEEP = (1_000, 4_000)


def build_parser() -> argparse.ArgumentParser:
    """The array-engine gate argument parser."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n", type=int, action="append", dest="sweep", metavar="N",
        help=f"subscription count, repeatable (default: {list(DEFAULT_SWEEP)})",
    )
    parser.add_argument(
        "--k", type=int, default=10, help="top-k size (default: 10)"
    )
    parser.add_argument(
        "--events", type=int, default=64,
        help="matches per measured round (default: 64)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="interleaved measurement rounds per engine (default: 3)",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="minimum python-array/reference events-per-second ratio (default: 1.5)",
    )
    parser.add_argument(
        "--numpy-slack", type=float, default=0.9,
        help="minimum numpy/python ratio fraction (default: 0.9)",
    )
    return parser


def _engines() -> List[Dict[str, str]]:
    engines = [
        {"label": "reference", "algorithm": "fx-tm"},
        {"label": "array-python", "algorithm": "fx-tm-array", "backend": "python"},
    ]
    if numpy_available():
        engines.append(
            {"label": "array-numpy", "algorithm": "fx-tm-array", "backend": "numpy"}
        )
    return engines


def _best_events_per_second(matcher, events, k: int, repeats: int) -> float:
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        for event in events:
            matcher.match(event, k)
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, len(events) / elapsed)
    return best


def measure_point(n: int, k: int, event_count: int, repeats: int) -> Dict[str, object]:
    """One swept N: load each engine, verify equivalence, then time."""
    workload = MicroWorkload(MicroWorkloadConfig(n=n))
    subscriptions = workload.subscriptions()
    events = workload.events(event_count)
    matchers = []
    for spec in _engines():
        extra = {"backend": spec["backend"]} if "backend" in spec else {}
        matcher = make_matcher(spec["algorithm"], prorate=True, **extra)
        load_subscriptions(matcher, subscriptions)
        matchers.append((spec["label"], matcher))

    # Equivalence first: identical results, scores compared with ==.
    reference = matchers[0][1]
    for event in events:
        expected = reference.match(event, k)
        for label, matcher in matchers[1:]:
            got = matcher.match(event, k)
            # Exactness IS the property under test here: the array
            # engine promises bitwise-identical scores, so the gate
            # deliberately compares floats for equality.  MatchResult is
            # a NamedTuple, so == compares every (sid, score) exactly.
            if got != expected:
                raise SystemExit(
                    f"array engine diverged from reference: n={n} engine={label}"
                )

    throughput: Dict[str, float] = {}
    for round_index in range(repeats):
        for label, matcher in matchers:
            eps = _best_events_per_second(matcher, events, k, repeats=1)
            throughput[label] = max(throughput.get(label, 0.0), eps)
    point: Dict[str, object] = {"n": n, "events_per_second": throughput}
    point["python_ratio"] = throughput["array-python"] / throughput["reference"]
    if "array-numpy" in throughput:
        point["numpy_ratio"] = throughput["array-numpy"] / throughput["reference"]
    return point


def main(argv: Optional[List[str]] = None) -> int:
    """Run the sweep; exit 1 when any point misses a gate."""
    args = build_parser().parse_args(argv)
    sweep = tuple(args.sweep) if args.sweep else DEFAULT_SWEEP
    points = [
        measure_point(n, args.k, args.events, args.repeats) for n in sweep
    ]
    report = {
        "benchmark": "array_engine",
        "numpy_available": numpy_available(),
        "threshold": args.threshold,
        "numpy_slack": args.numpy_slack,
        "points": points,
    }
    print("BENCH " + json.dumps(report, sort_keys=True))
    failed = False
    for point in points:
        ratio = point["python_ratio"]
        if ratio < args.threshold:
            print(
                f"GATE FAIL n={point['n']}: python-array ratio {ratio:.2f} "
                f"< {args.threshold}",
                file=sys.stderr,
            )
            failed = True
        numpy_ratio = point.get("numpy_ratio")
        if numpy_ratio is not None and numpy_ratio < ratio * args.numpy_slack:
            print(
                f"GATE FAIL n={point['n']}: numpy ratio {numpy_ratio:.2f} "
                f"< {args.numpy_slack} x python ratio {ratio:.2f}",
                file=sys.stderr,
            )
            failed = True
    if not failed:
        summary = ", ".join(
            f"n={p['n']}: python {p['python_ratio']:.2f}x"
            + (f", numpy {p['numpy_ratio']:.2f}x" if "numpy_ratio" in p else "")
            for p in points
        )
        print(f"GATE OK ({summary})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
