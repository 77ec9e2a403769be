"""Concurrency wrapper: what the locking actually costs.

The paper kept its evaluation single-threaded for fairness (section 4.2)
and notes that concurrent updates and matches need only "an appropriate
locking scheme" (section 7.1); these benchmarks put the RW lock's
per-match cost next to the serial hot loop so deployments can decide
with numbers.
"""

from conftest import BENCH_N, EVENT_POOL, MatcherBench
from repro.bench.harness import load_subscriptions
from repro.core.concurrent import ThreadSafeMatcher
from repro.core.matcher import FXTMMatcher
from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig

_STATE = {}


def workload() -> MicroWorkload:
    """A cached micro workload shared by every concurrency benchmark."""
    if "w" not in _STATE:
        _STATE["w"] = MicroWorkload(MicroWorkloadConfig(n=BENCH_N))
    return _STATE["w"]


def test_serial_fxtm_reference(benchmark):
    base = workload()
    matcher = FXTMMatcher(prorate=True)
    load_subscriptions(matcher, base.subscriptions())
    bench = MatcherBench(matcher, base.events(EVENT_POOL), k=max(1, BENCH_N // 100))
    benchmark(bench.match_one)
    benchmark.extra_info["variant"] = "serial"


def test_thread_safe_wrapper_overhead(benchmark):
    base = workload()
    safe = ThreadSafeMatcher(FXTMMatcher(prorate=True))
    for subscription in base.subscriptions():
        safe.add_subscription(subscription)
    bench = MatcherBench(safe, base.events(EVENT_POOL), k=max(1, BENCH_N // 100))
    benchmark(bench.match_one)
    benchmark.extra_info["variant"] = "rw-locked"
