"""Ablation: bounded top-k set (S log k) vs full sort (S log S)."""

import pytest

from conftest import BENCH_N, EVENT_POOL, MatcherBench
from repro.bench.ablations import FXTMFullSortMatcher
from repro.bench.harness import load_subscriptions
from repro.core.matcher import FXTMMatcher
from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig

_WORKLOAD = {}


def high_selectivity_workload() -> MicroWorkload:
    """A cached high-selectivity micro workload shared across variants."""
    if "w" not in _WORKLOAD:
        _WORKLOAD["w"] = MicroWorkload(MicroWorkloadConfig(n=BENCH_N, selectivity=0.6))
    return _WORKLOAD["w"]


@pytest.mark.parametrize(
    "variant", [("bounded-topk", FXTMMatcher), ("full-sort", FXTMFullSortMatcher)]
)
def test_ablation_topk(benchmark, variant):
    label, matcher_cls = variant
    workload = high_selectivity_workload()
    matcher = matcher_cls(prorate=True)
    load_subscriptions(matcher, workload.subscriptions())
    bench = MatcherBench(matcher, workload.events(EVENT_POOL), k=max(1, BENCH_N // 100))
    benchmark(bench.match_one)
    benchmark.extra_info.update({"ablation": "topk", "variant": label})
