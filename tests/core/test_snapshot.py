"""Matcher snapshots: save / restore round trips."""

import json
import random

import pytest

from repro.core.attributes import AttributeKind, Interval, Schema
from repro.core.budget import BudgetWindowSpec
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.snapshot import SnapshotError, load_matcher, restore_into, save_matcher
from repro.core.subscriptions import Constraint, Subscription

from tests.helpers import random_event, random_subscriptions


@pytest.fixture
def populated():
    rng = random.Random(17)
    matcher = FXTMMatcher(
        prorate=True,
        schema=Schema({"votes": AttributeKind.RANGE_DISCRETE}),
    )
    for sub in random_subscriptions(rng, 80, with_sets=True):
        matcher.add_subscription(sub)
    matcher.add_subscription(
        Subscription(
            "budgeted",
            [Constraint("votes", Interval(1, 100), 1.0)],
            budget=BudgetWindowSpec(budget=50, window_length=1000),
        )
    )
    return matcher


class TestRoundTrip:
    def test_save_returns_count(self, populated, tmp_path):
        path = tmp_path / "snap.jsonl"
        assert save_matcher(populated, path) == 81

    def test_load_rebuilds_equivalent_matcher(self, populated, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        restored = load_matcher(path)
        assert type(restored) is FXTMMatcher
        assert restored.prorate is True
        assert len(restored) == len(populated)
        rng = random.Random(5)
        for _ in range(10):
            event = random_event(rng)
            assert restored.match(event, 6) == populated.match(event, 6)

    def test_schema_kinds_survive(self, populated, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        restored = load_matcher(path)
        assert restored.schema.kind_of("votes") is AttributeKind.RANGE_DISCRETE

    def test_budget_spec_survives_state_does_not(self, populated, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        restored = load_matcher(path)
        budget = restored.get_subscription("budgeted").budget
        assert budget is not None
        assert budget.budget == 50.0

    def test_restore_into_existing(self, populated, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        fresh = FXTMMatcher(prorate=True)
        assert restore_into(fresh, path) == 81
        assert len(fresh) == 81

    def test_factory_override(self, populated, tmp_path):
        from repro.baselines.naive import NaiveMatcher

        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        restored = load_matcher(
            path, factory=lambda schema, prorate: NaiveMatcher(schema=schema, prorate=prorate)
        )
        assert type(restored) is NaiveMatcher
        assert len(restored) == 81

    def test_atomic_overwrite(self, populated, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        save_matcher(populated, path)  # second save replaces cleanly
        assert len(load_matcher(path)) == 81
        assert not (tmp_path / "snap.jsonl.tmp").exists()


class TestValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SnapshotError):
            load_matcher(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "something-else", "v": 1}) + "\n")
        with pytest.raises(SnapshotError):
            load_matcher(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "vNext.jsonl"
        path.write_text(json.dumps({"kind": "repro-matcher-snapshot", "v": 2}) + "\n")
        with pytest.raises(SnapshotError):
            load_matcher(path)

    def test_corrupt_body_line(self, tmp_path, populated):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        with open(path, "a") as handle:
            handle.write("{broken\n")
        fresh = FXTMMatcher()
        with pytest.raises(SnapshotError):
            restore_into(fresh, path)

    @staticmethod
    def _state(matcher):
        return dict(matcher.subscriptions), matcher.schema.snapshot_kinds()

    def test_bad_last_line_leaves_matcher_unchanged(self, tmp_path, populated):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        with open(path, "a") as handle:
            handle.write(json.dumps({"v": 1, "sid": "broken", "constraints": []}) + "\n")
        target = FXTMMatcher()
        target.add_subscription(Subscription("mine", [Constraint("age", Interval(18, 30), 1.0)]))
        before = self._state(target)
        with pytest.raises(SnapshotError):
            restore_into(target, path)
        assert self._state(target) == before

    def test_sid_already_present_leaves_matcher_unchanged(self, tmp_path, populated):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        target = FXTMMatcher()
        clash = populated.get_subscription("budgeted")
        target.add_subscription(clash)
        before = self._state(target)
        with pytest.raises(SnapshotError):
            restore_into(target, path)
        assert self._state(target) == before
        assert target.get_subscription("budgeted") is clash

    def test_duplicate_sid_within_file_is_rejected(self, tmp_path, populated):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        with open(path) as handle:
            last = handle.readlines()[-1]
        with open(path, "a") as handle:
            handle.write(last)
        target = FXTMMatcher()
        with pytest.raises(SnapshotError):
            restore_into(target, path)
        assert len(target) == 0
        assert target.schema.snapshot_kinds() == {}

    def test_conflicting_header_kind_leaves_matcher_unchanged(self, tmp_path, populated):
        from repro.errors import SchemaError

        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)  # declares votes as range_discrete
        target = FXTMMatcher(schema=Schema({"votes": AttributeKind.RANGE_CONTINUOUS}))
        target.add_subscription(Subscription("mine", [Constraint("age", Interval(18, 30), 1.0)]))
        before = self._state(target)
        with pytest.raises(SchemaError):
            restore_into(target, path)
        assert self._state(target) == before

    def test_failed_add_rolls_back_subscriptions_and_schema(self, tmp_path, populated):
        path = tmp_path / "snap.jsonl"
        save_matcher(populated, path)
        target = FXTMMatcher()
        before = self._state(target)
        calls = []
        add = target.add_subscription

        def failing_add(subscription):
            if len(calls) == 40:
                raise RuntimeError("injected add failure")
            calls.append(subscription.sid)
            add(subscription)

        target.add_subscription = failing_add
        with pytest.raises(RuntimeError):
            restore_into(target, path)
        assert len(calls) == 40
        assert self._state(target) == before

    def test_unknown_algorithm_needs_factory(self, tmp_path):
        path = tmp_path / "custom.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "repro-matcher-snapshot",
                    "v": 1,
                    "algorithm": "my-matcher",
                    "prorate": False,
                    "schema": {},
                }
            )
            + "\n"
        )
        with pytest.raises(SnapshotError):
            load_matcher(path)
        restored = load_matcher(
            path, factory=lambda schema, prorate: FXTMMatcher(schema=schema, prorate=prorate)
        )
        assert len(restored) == 0

    def test_unknown_schema_kind(self, tmp_path):
        path = tmp_path / "badschema.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "repro-matcher-snapshot",
                    "v": 1,
                    "algorithm": "fx-tm",
                    "prorate": False,
                    "schema": {"x": "quantum"},
                }
            )
            + "\n"
        )
        with pytest.raises(SnapshotError):
            load_matcher(path)
