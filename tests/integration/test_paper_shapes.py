"""Lightweight checks of the paper's headline *shape* claims.

These assert orderings and coarse ratios at small scale with wide
margins; the full quantitative record lives in EXPERIMENTS.md. Timing
comparisons use medians over several events to resist scheduler noise,
and every threshold is at least 2x away from the measured values so a
loaded CI machine does not flake them.
"""

import statistics
import time

import pytest

from repro.bench.harness import load_subscriptions, make_matcher
from repro.bench.memory import storage_bytes
from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig

N = 1_200
EVENTS = 9


def median_match_ms(matcher, events, k):
    samples = []
    matcher.match(events[0], k)  # warmup
    for event in events:
        started = time.perf_counter()
        matcher.match(event, k)
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


@pytest.fixture(scope="module")
def default_workload():
    workload = MicroWorkload(MicroWorkloadConfig(n=N))
    return workload, workload.subscriptions(), workload.events(EVENTS)


@pytest.fixture(scope="module")
def timings(default_workload):
    _workload, subs, events = default_workload
    k = max(1, N // 100)
    result = {}
    for name in ("fx-tm", "be-star", "fagin", "fagin-augmented"):
        matcher = make_matcher(name, prorate=True)
        load_subscriptions(matcher, subs)
        result[name] = median_match_ms(matcher, events, k)
    return result


class TestHeadlineOrderings:
    def test_fxtm_at_least_as_fast_as_bestar(self, timings):
        """Paper: BE* is 165-200% slower on the micro-benchmarks."""
        assert timings["be-star"] > 1.5 * timings["fx-tm"]

    def test_augmented_fagin_is_the_slowest(self, timings):
        """Paper: upgrading Fagin's expressiveness costs an order."""
        assert timings["fagin-augmented"] > 2.0 * timings["fx-tm"]
        assert timings["fagin-augmented"] > timings["fagin"]

    def test_fagin_is_competitive_at_low_k(self, timings):
        """Paper: plain Fagin is within a small factor at k = 1%.

        The flattened stab view dropped FX-TM's median from near parity
        with Fagin to ~0.65x of it; the bound keeps the required 2x
        headroom over the measured ~1.3-1.6x ratio.
        """
        assert timings["fagin"] < 3.0 * timings["fx-tm"]


class TestSelectivityShape:
    def test_fxtm_output_sensitive_in_selectivity(self):
        """Paper Figure 3(f): FX-TM cost grows appreciably with S/N."""
        k = max(1, N // 100)
        low = MicroWorkload(MicroWorkloadConfig(n=N, selectivity=0.05))
        high = MicroWorkload(MicroWorkloadConfig(n=N, selectivity=0.7))
        times = {}
        for label, workload in (("low", low), ("high", high)):
            matcher = make_matcher("fx-tm", prorate=True)
            load_subscriptions(matcher, workload.subscriptions())
            times[label] = median_match_ms(matcher, workload.events(EVENTS), k)
        assert times["high"] > 2.0 * times["low"]

    def test_bestar_gap_narrows_with_selectivity(self):
        """Paper Figure 3(f): BE* relatively improves as S/N rises."""
        k = max(1, N // 100)
        ratios = {}
        for selectivity in (0.05, 0.7):
            workload = MicroWorkload(MicroWorkloadConfig(n=N, selectivity=selectivity))
            subs, events = workload.subscriptions(), workload.events(EVENTS)
            fx = make_matcher("fx-tm", prorate=True)
            be = make_matcher("be-star", prorate=True)
            load_subscriptions(fx, subs)
            load_subscriptions(be, subs)
            ratios[selectivity] = median_match_ms(be, events, k) / median_match_ms(
                fx, events, k
            )
        assert ratios[0.7] < ratios[0.05] / 1.5


class TestMShape:
    def test_fxtm_flat_in_m_bestar_grows(self):
        """Paper Figures 3(d)/(e)."""
        k = max(1, N // 100)
        fx_times, be_times = {}, {}
        for m in (5, 30):
            workload = MicroWorkload(MicroWorkloadConfig(n=N, m=m))
            subs, events = workload.subscriptions(), workload.events(EVENTS)
            fx = make_matcher("fx-tm", prorate=True)
            be = make_matcher("be-star", prorate=True)
            load_subscriptions(fx, subs)
            load_subscriptions(be, subs)
            fx_times[m] = median_match_ms(fx, events, k)
            be_times[m] = median_match_ms(be, events, k)
        # FX-TM within 3x of itself across a 6x M change; BE* grows.
        assert fx_times[30] < 3.0 * fx_times[5]
        assert be_times[30] > 1.3 * be_times[5]


class TestMemoryShape:
    def test_storage_linear_in_n(self):
        """Paper Figure 5(a): storage linear in N; FX-TM == Fagin."""
        sizes = {}
        for n in (400, 1200):
            workload = MicroWorkload(MicroWorkloadConfig(n=n))
            subs = workload.subscriptions()
            fx = make_matcher("fx-tm", prorate=True)
            fagin = make_matcher("fagin", prorate=True)
            load_subscriptions(fx, subs)
            load_subscriptions(fagin, subs)
            sizes[n] = (storage_bytes(fx), storage_bytes(fagin))
        growth = sizes[1200][0] / sizes[400][0]
        assert 2.0 < growth < 4.5  # ~3x for 3x N
        for n in sizes:
            fx_bytes, fagin_bytes = sizes[n]
            assert abs(fx_bytes - fagin_bytes) / fx_bytes < 0.05

    def test_matching_memory_orders_below_storage(self):
        """Paper 7.6: matching RAM at least an order below storage."""
        from repro.bench.memory import matching_peak_bytes

        workload = MicroWorkload(MicroWorkloadConfig(n=N))
        matcher = make_matcher("fx-tm", prorate=True)
        load_subscriptions(matcher, workload.subscriptions())
        mean_peak, _ = matching_peak_bytes(matcher, workload.events(4), k=12)
        assert mean_peak * 10 < storage_bytes(matcher)


class TestDistributedShape:
    def test_local_time_falls_and_depth_steps(self):
        """Paper Figure 7 essentials at reduced scale."""
        from repro.bench.fig7 import fig7_distributed

        result = fig7_distributed(
            n=4500, node_counts=(1, 3, 9, 27), k=15, event_count=5,
            algorithms=("fx-tm",),
        )
        local = result.series_by_label("fx-tm local")
        assert local.at(27.0) < local.at(1.0) / 3.0
        total = result.series_by_label("fx-tm total")
        # Distribution beats a single node even including aggregation.
        assert min(total.y_values) < total.at(1.0)
