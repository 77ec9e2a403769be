"""The distributed system: correctness vs centralized, timing accounting."""

import random

import pytest

from repro.baselines.betree import BEStarTreeMatcher
from repro.core.matcher import FXTMMatcher
from repro.core.subscriptions import Constraint, Subscription
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.network import LatencyModel
from repro.errors import OverlayError, UnknownSubscriptionError

from tests.helpers import random_event, random_subscriptions


@pytest.fixture
def subs():
    return random_subscriptions(random.Random(41), 240)


@pytest.fixture
def events():
    rng = random.Random(43)
    return [random_event(rng) for _ in range(8)]


class TestDistributionCorrectness:
    @pytest.mark.parametrize("node_count", [1, 2, 3, 7, 9])
    def test_equals_centralized_fxtm(self, subs, events, node_count):
        central = FXTMMatcher(prorate=True)
        for sub in subs:
            central.add_subscription(sub)
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True), node_count=node_count
        )
        system.add_subscriptions(subs)
        for event in events:
            outcome = system.match(event, 10)
            expected = central.match(event, 10)
            assert [r.sid for r in outcome.results] == [r.sid for r in expected]

    def test_equals_centralized_bestar(self, subs, events):
        central = BEStarTreeMatcher(prorate=True)
        for sub in subs:
            central.add_subscription(sub)
        system = DistributedTopKSystem(
            lambda: BEStarTreeMatcher(prorate=True), node_count=5
        )
        system.add_subscriptions(subs)
        for event in events:
            outcome = system.match(event, 6)
            assert [r.sid for r in outcome.results] == [
                r.sid for r in central.match(event, 6)
            ]

    def test_round_robin_distribution_even(self, subs):
        system = DistributedTopKSystem(FXTMMatcher, node_count=7)
        system.add_subscriptions(subs)
        sizes = [len(node) for node in system.nodes]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(subs) == len(system)

    def test_cancel_reaches_owner(self, subs, events):
        system = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=4)
        system.add_subscriptions(subs)
        target = subs[0].sid
        system.cancel_subscription(target)
        assert len(system) == len(subs) - 1
        for event in events:
            assert all(r.sid != target for r in system.match(event, 20).results)

    def test_cancel_unknown_raises(self):
        system = DistributedTopKSystem(FXTMMatcher, node_count=2)
        with pytest.raises(UnknownSubscriptionError):
            system.cancel_subscription("ghost")

    def test_owners_of_unknown_raises(self):
        system = DistributedTopKSystem(FXTMMatcher, node_count=2)
        system.add_subscriptions([Subscription("s", [Constraint("a", 1)])])
        assert system.owners_of("s") in ([0], [1])
        with pytest.raises(UnknownSubscriptionError):
            system.owners_of("ghost")

    def test_bad_node_count(self):
        with pytest.raises(OverlayError):
            DistributedTopKSystem(FXTMMatcher, node_count=0)


class TestTimingAccounting:
    def test_outcome_fields(self, subs, events):
        system = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=6)
        system.add_subscriptions(subs)
        outcome = system.match(events[0], 5)
        assert len(outcome.local_seconds) == 6
        assert all(t > 0 for t in outcome.local_seconds)
        assert outcome.total_seconds > outcome.max_local_seconds
        assert outcome.mean_local_seconds <= outcome.max_local_seconds
        assert outcome.aggregation_seconds > 0
        assert outcome.merge_compute_seconds >= 0

    def test_total_includes_network_base(self, subs, events):
        slow_network = LatencyModel(base_seconds=10e-3, jitter_fraction=0.0)
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=3,
            latency=slow_network,
        )
        system.add_subscriptions(subs)
        outcome = system.match(events[0], 5)
        # Dissemination + 1 aggregation hop + return hop >= 3 base hops.
        assert outcome.total_seconds >= 30e-3

    def test_deterministic_jitter(self):
        model = LatencyModel(seed=5)
        first = [model.hop(10, model.rng()) for _ in range(3)]
        second = [model.hop(10, model.rng()) for _ in range(3)]
        assert first == second


class TestLatencyModel:
    def test_hop_components(self):
        model = LatencyModel(base_seconds=1e-3, per_result_seconds=1e-6, jitter_fraction=0.0)
        rng = model.rng()
        assert model.hop(0, rng) == pytest.approx(1e-3)
        assert model.hop(1000, rng) == pytest.approx(2e-3)

    def test_jitter_bounds(self):
        model = LatencyModel(base_seconds=1e-3, per_result_seconds=0.0, jitter_fraction=0.1)
        rng = model.rng()
        for _ in range(100):
            assert 0.9e-3 <= model.hop(0, rng) <= 1.1e-3

    def test_negative_payload_rejected(self):
        model = LatencyModel()
        with pytest.raises(ValueError):
            model.hop(-1, model.rng())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_seconds=-1)
        with pytest.raises(ValueError):
            LatencyModel(jitter_fraction=1.5)


class TestBatchedDistributedMatch:
    def test_equals_centralized_per_event(self, subs, events):
        central = FXTMMatcher(prorate=True)
        for sub in subs:
            central.add_subscription(sub)
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True), node_count=5
        )
        system.add_subscriptions(subs)
        outcome = system.match_batch(events, 10)
        assert [[r.sid for r in results] for results in outcome.results] == [
            [r.sid for r in central.match(event, 10)] for event in events
        ]

    def test_equals_sequence_of_distributed_matches(self, subs, events):
        batch_system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True), node_count=4
        )
        seq_system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True), node_count=4
        )
        batch_system.add_subscriptions(subs)
        seq_system.add_subscriptions(subs)
        batched = batch_system.match_batch(events, 6).results
        assert batched == [seq_system.match(event, 6).results for event in events]

    def test_outcome_fields(self, subs, events):
        system = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=6)
        system.add_subscriptions(subs)
        outcome = system.match_batch(events, 5)
        assert outcome.events == len(events)
        assert len(outcome.local_seconds) == 6
        assert all(t > 0 for t in outcome.local_seconds)
        assert outcome.total_seconds > 0
        assert outcome.aggregation_seconds > 0
        assert not outcome.degraded
        assert outcome.coverage == 1.0

    def test_batch_amortizes_network_hops(self, subs, events):
        """One batch pays each overlay hop once, not once per event."""
        model = dict(base_seconds=1e-3, jitter_fraction=0.0)
        batch_system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=3,
            latency=LatencyModel(**model),
        )
        seq_system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=3,
            latency=LatencyModel(**model),
        )
        batch_system.add_subscriptions(subs)
        seq_system.add_subscriptions(subs)
        batch_total = batch_system.match_batch(events, 5).total_seconds
        sequential_total = sum(
            seq_system.match(event, 5).total_seconds for event in events
        )
        # 8 events' worth of per-hop base latency collapses to ~1 event's.
        assert batch_total < sequential_total / 2

    def test_degraded_batch_under_leaf_crash(self, subs, events):
        from repro.distributed.faults import FaultPlan

        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=4,
            faults=FaultPlan(crashed=frozenset({1}), seed=7),
        )
        system.add_subscriptions(subs)
        outcome = system.match_batch(events, 5)
        assert outcome.degraded
        assert outcome.coverage < 1.0
        assert 1 in set(outcome.failed_leaves) | set(outcome.quarantined_leaves)
        assert len(outcome.results) == len(events)
        # The crashed leaf's partition is missing from every event.
        lost = {sub.sid for index, sub in enumerate(subs) if index % 4 == 1}
        for results in outcome.results:
            assert not ({r.sid for r in results} & lost)

    def test_batch_events_metric(self, subs, events):
        from repro.obs import MetricsRegistry, parse_prom_text

        registry = MetricsRegistry()
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True), node_count=3, registry=registry
        )
        system.add_subscriptions(subs)
        system.match_batch(events, 5)
        families = parse_prom_text(registry.to_prom_text())
        samples = families["repro_distributed_batch_events_total"]["samples"]
        assert samples[0][2] == len(events)

    def test_batch_traced(self, subs, events):
        from repro.obs import Tracer

        tracer = Tracer()
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True), node_count=3, tracer=tracer
        )
        system.add_subscriptions(subs)
        system.match_batch(events, 5)
        root = tracer.last_trace
        assert root.name == "distributed.match_batch"
        assert root.attributes["batch"] == len(events)

    def test_empty_batch(self, subs):
        system = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=3)
        system.add_subscriptions(subs)
        outcome = system.match_batch([], 5)
        assert outcome.results == []
        assert outcome.events == 0


#: System-level fault plans for the single/batch parity grid: healthy, a
#: crashed leaf, a flaky leaf under hop drops, and a leaf that crashes
#: mid-stream and restarts while another is flaky.
PARITY_PLANS = {
    "healthy": None,
    "crashed": dict(crashed=frozenset({1}), seed=3),
    "flaky-drops": dict(flaky={2: 0.5}, hop_drop_rate=0.2, seed=5),
    "crash-recover": dict(
        crash_at_match={3: 4}, recover_at_match={3: 9}, flaky={0: 0.4}, seed=9
    ),
}


class TestSingleBatchParity:
    """``match(e)`` and ``match_batch([e])`` walk the overlay identically."""

    @pytest.fixture(scope="class")
    def micro(self):
        from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig

        workload = MicroWorkload(MicroWorkloadConfig(n=600, seed=11))
        return workload.subscriptions(), workload.events(16)

    @pytest.mark.parametrize("replication", [1, 2, 3])
    @pytest.mark.parametrize("plan", sorted(PARITY_PLANS))
    def test_match_equals_batch_of_one(self, micro, plan, replication):
        from repro.distributed.faults import FaultPlan

        subs, events = micro

        def build():
            settings = PARITY_PLANS[plan]
            system = DistributedTopKSystem(
                lambda: FXTMMatcher(prorate=True),
                node_count=6,
                replication_factor=replication,
                faults=FaultPlan(**settings) if settings is not None else None,
            )
            system.add_subscriptions(subs)
            return system

        single, batched = build(), build()
        # total_seconds and straggler effects fold in measured compute, so
        # only the deterministic fields are compared.
        fields = (
            "failed_leaves",
            "coverage",
            "retries_attempted",
            "hops_timed_out",
            "quarantined_leaves",
        )
        for event in events:
            one = single.match(event, 10)
            many = batched.match_batch([event], 10)
            assert many.results == [one.results]
            for name in fields:
                assert getattr(many, name) == getattr(one, name), name
