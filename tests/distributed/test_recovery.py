"""Leaf recovery: snapshot rebuild, replica copy, orphan re-placement."""

import random

import pytest

from repro.core.matcher import FXTMMatcher
from repro.core.parser import parse_event, parse_subscription
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.health import HealthTracker
from repro.errors import RecoveryError

from tests.helpers import random_event, random_subscriptions


@pytest.fixture
def workload():
    rng = random.Random(77)
    subs = random_subscriptions(rng, 120)
    events = [random_event(rng) for _ in range(4)]
    return subs, events


def build_system(subs, replication_factor=1, node_count=4):
    system = DistributedTopKSystem(
        lambda: FXTMMatcher(prorate=True),
        node_count=node_count,
        replication_factor=replication_factor,
    )
    system.add_subscriptions(subs)
    return system


def reference_results(subs, events, k=10):
    central = FXTMMatcher(prorate=True)
    for sub in subs:
        central.add_subscription(sub)
    return [[(r.sid, r.score) for r in central.match(event, k)] for event in events]


class TestCrash:
    def test_crash_quarantines_and_degrades(self, workload):
        subs, events = workload
        system = build_system(subs)
        system.crash_leaf(2)
        assert system.health.is_quarantined(2)
        outcome = system.match(events[0], 10)
        assert 2 in outcome.failed_leaves
        assert 2 in outcome.quarantined_leaves
        assert outcome.degraded
        # A known crash costs no detection timeouts.
        assert outcome.hops_timed_out == 0

    def test_cancel_survives_crashed_replica(self, workload):
        subs, _events = workload
        system = build_system(subs, replication_factor=2)
        target = subs[0].sid
        dead = system.owners_of(target)[0]
        system.crash_leaf(dead)
        system.cancel_subscription(target)  # must not raise
        assert len(system) == len(subs) - 1


class TestSnapshotRecovery:
    def test_rebuild_from_snapshot(self, workload, tmp_path):
        subs, events = workload
        system = build_system(subs)
        expected = reference_results(subs, events)
        path = tmp_path / "leaf1.snapshot"
        count = system.save_leaf_snapshot(1, path)
        assert count == len(system.nodes[1])

        system.crash_leaf(1)
        assert system.match(events[0], 10).degraded

        report = system.recover_leaf(1, snapshot_path=path)
        assert report.restored_from_snapshot == count
        assert report.copied_from_replicas == 0
        assert report.lost == []
        assert not system.health.is_quarantined(1)
        for event, reference in zip(events, expected):
            outcome = system.match(event, 10)
            assert not outcome.degraded
            assert [(r.sid, r.score) for r in outcome.results] == reference

    def test_stale_snapshot_entries_dropped(self, workload, tmp_path):
        subs, _events = workload
        system = build_system(subs)
        path = tmp_path / "leaf0.snapshot"
        system.save_leaf_snapshot(0, path)
        cancelled = next(
            sid for sid in (s.sid for s in subs) if system.owners_of(sid) == [0]
        )
        system.cancel_subscription(cancelled)
        system.crash_leaf(0)
        system.recover_leaf(0, snapshot_path=path)
        assert cancelled not in system.nodes[0].matcher

    def test_readd_while_down_beats_snapshot(self, tmp_path):
        """A sid cancelled and re-added while its leaf was down is served
        with the re-added predicate, not the snapshot's."""
        system = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=1)
        system.add_subscription(parse_subscription("s1", "price in [0, 10]"))
        path = tmp_path / "leaf0.snapshot"
        system.save_leaf_snapshot(0, path)
        system.crash_leaf(0)
        system.cancel_subscription("s1")
        system.add_subscription(parse_subscription("s1", "price in [100, 110]"))
        report = system.recover_leaf(0, snapshot_path=path)
        assert (report.accepted_while_down, report.restored_from_snapshot) == (1, 0)
        assert system.match(parse_event("price: 5"), 10).results == []
        assert [r.sid for r in system.match(parse_event("price: 105"), 10).results] == ["s1"]

    def test_add_while_down_is_not_lost(self):
        """A write the cluster accepted for a down leaf survives recovery."""
        system = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=2)
        system.add_subscription(parse_subscription("a", "price in [50, 60]"))
        system.crash_leaf(1)
        # Round-robin placement puts the second subscription on leaf 1.
        assert system.add_subscription(parse_subscription("b", "price in [0, 10]")) == 1
        report = system.recover_leaf(1)
        assert report.lost == []
        assert report.accepted_while_down == report.recovered == 1
        assert system.owners_of("b") == [1]
        assert [r.sid for r in system.match(parse_event("price: 5"), 10).results] == ["b"]

    def test_unrecoverable_sids_reported_lost(self, workload):
        subs, _events = workload
        system = build_system(subs)  # r=1: no replicas, no snapshot
        owned = [sid for sid in (s.sid for s in subs) if system.owners_of(sid) == [0]]
        system.crash_leaf(0)
        report = system.recover_leaf(0)
        assert sorted(report.lost) == sorted(owned)
        assert report.recovered == 0
        assert len(system) == len(subs) - len(owned)
        # Coverage accounting stays truthful after dropping lost sids.
        assert not system.match(random_event(random.Random(5)), 10).degraded


class TestReplicaRecovery:
    def test_rebuild_from_surviving_replicas(self, workload):
        subs, events = workload
        system = build_system(subs, replication_factor=2)
        expected = reference_results(subs, events)
        owned_before = len(system.nodes[3])
        system.crash_leaf(3)
        report = system.recover_leaf(3)
        assert report.copied_from_replicas == owned_before
        assert report.lost == []
        assert len(system.nodes[3]) == owned_before
        for event, reference in zip(events, expected):
            outcome = system.match(event, 10)
            assert not outcome.degraded
            assert [(r.sid, r.score) for r in outcome.results] == reference


class TestOrphanReassignment:
    def test_orphans_replaced_onto_survivors(self, workload):
        subs, events = workload
        system = build_system(subs, replication_factor=2)
        expected = reference_results(subs, events)
        affected = [sid for sid in (s.sid for s in subs) if 2 in system.owners_of(sid)]
        moved, lost = system.reassign_orphans(2)
        assert moved == len(affected)
        assert lost == []
        # Replication degree is restored away from the dead leaf.
        for sid in affected:
            owners = system.owners_of(sid)
            assert len(owners) == 2
            assert 2 not in owners
        # The dead leaf stays quarantined, yet answers are complete.
        for event, reference in zip(events, expected):
            outcome = system.match(event, 10)
            assert not outcome.degraded
            assert [(r.sid, r.score) for r in outcome.results] == reference

    def test_r1_orphans_are_lost(self, workload):
        subs, _events = workload
        system = build_system(subs, replication_factor=1)
        owned = [sid for sid in (s.sid for s in subs) if system.owners_of(sid) == [1]]
        moved, lost = system.reassign_orphans(1)
        assert moved == 0
        assert sorted(lost) == sorted(owned)

    def test_no_survivors_rejected(self, workload):
        subs, _events = workload
        system = build_system(subs, node_count=2, replication_factor=2)
        system.crash_leaf(0)
        with pytest.raises(RecoveryError):
            system.reassign_orphans(1)


class TestQuarantineLifecycle:
    def test_system_injector_quarantines_then_probe_readmits(self, workload):
        """End-to-end detection: timeouts -> quarantine -> probe -> readmit."""
        from repro.distributed.faults import FaultPlan

        subs, events = workload
        # Leaf 1 is down for matches 0 and 1 and healthy from match 2 on
        # (a restarted process).
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=3,
            faults=FaultPlan(crashed={1}, recover_at_match={1: 2}),
            health=HealthTracker(
                node_count=3, suspicion_threshold=3, readmission_seconds=0.0
            ),
        )
        system.add_subscriptions(subs)
        first = system.match(events[0], 10)  # pays timeouts, quarantines leaf 1
        assert 1 in first.failed_leaves
        assert first.hops_timed_out == system.retry.max_attempts
        assert system.health.is_quarantined(1)
        second = system.match(events[1], 10)  # probe: still down, one timeout
        assert 1 in second.failed_leaves
        assert second.hops_timed_out == 1
        assert system.health.is_quarantined(1)
        third = system.match(events[2], 10)  # probe: leaf restarted, readmitted
        assert 1 not in third.failed_leaves
        assert not system.health.is_quarantined(1)
        assert not third.degraded

    def test_quarantine_skips_detection_cost(self, workload):
        """After detection, matches stop paying the crashed leaf's timeouts."""
        from repro.distributed.faults import FaultPlan

        subs, events = workload
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=3,
            faults=FaultPlan(crashed={0}),
        )
        system.add_subscriptions(subs)
        first = system.match(events[0], 10)
        assert first.hops_timed_out == system.retry.max_attempts
        assert system.health.is_quarantined(0)
        later = system.match(events[1], 10)
        assert later.hops_timed_out == 0
        assert later.quarantined_leaves == [0]
        assert later.total_seconds < first.total_seconds
