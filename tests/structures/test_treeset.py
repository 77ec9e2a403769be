"""Tree sets and the bounded top-k structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.treeset import BoundedTopK, IdTreeSet, ScoredTreeSet


class TestIdTreeSet:
    def test_empty(self):
        ts = IdTreeSet()
        assert len(ts) == 0
        assert not ts
        assert "x" not in ts
        assert ts.get_all() == []

    def test_add_and_contains(self):
        ts = IdTreeSet()
        ts.add("s1", payload=1.0)
        assert "s1" in ts
        assert ts.get("s1") == 1.0

    def test_get_default(self):
        ts = IdTreeSet()
        assert ts.get("missing") is None
        assert ts.get("missing", 7) == 7

    def test_get_all_in_id_order(self):
        ts = IdTreeSet()
        for sid in ("c", "a", "b"):
            ts.add(sid)
        assert [sid for sid, _ in ts.get_all()] == ["a", "b", "c"]

    def test_duplicate_add_raises(self):
        ts = IdTreeSet()
        ts.add("s1")
        with pytest.raises(KeyError):
            ts.add("s1")

    def test_remove_returns_payload(self):
        ts = IdTreeSet()
        ts.add("s1", payload="data")
        assert ts.remove("s1") == "data"
        assert "s1" not in ts

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            IdTreeSet().remove("ghost")

    def test_iter(self):
        ts = IdTreeSet()
        for sid in (3, 1, 2):
            ts.add(sid)
        assert list(ts) == [1, 2, 3]


class TestScoredTreeSet:
    def test_empty(self):
        ts = ScoredTreeSet()
        assert len(ts) == 0
        with pytest.raises(KeyError):
            ts.find_min()
        with pytest.raises(KeyError):
            ts.remove_min()

    def test_find_min_and_max(self):
        ts = ScoredTreeSet()
        ts.add("a", 3.0)
        ts.add("b", 1.0)
        ts.add("c", 2.0)
        assert ts.find_min() == ("b", 1.0)
        assert ts.find_max() == ("a", 3.0)

    def test_remove_min_order(self):
        ts = ScoredTreeSet()
        scores = {"a": 3.0, "b": 1.0, "c": 2.0}
        for sid, score in scores.items():
            ts.add(sid, score)
        order = [ts.remove_min()[0] for _ in range(3)]
        assert order == ["b", "c", "a"]

    def test_remove_id(self):
        ts = ScoredTreeSet()
        ts.add("a", 5.0)
        ts.add("b", 1.0)
        assert ts.remove_id("a") == 5.0
        assert "a" not in ts
        assert ts.find_max() == ("b", 1.0)

    def test_remove_id_missing_raises(self):
        with pytest.raises(KeyError):
            ScoredTreeSet().remove_id("ghost")

    def test_duplicate_sid_raises(self):
        ts = ScoredTreeSet()
        ts.add("a", 1.0)
        with pytest.raises(KeyError):
            ts.add("a", 2.0)

    def test_equal_scores_different_sids(self):
        ts = ScoredTreeSet()
        ts.add("x", 1.0)
        ts.add("y", 1.0)
        assert len(ts) == 2
        removed = {ts.remove_min()[0], ts.remove_min()[0]}
        assert removed == {"x", "y"}

    def test_score_of(self):
        ts = ScoredTreeSet()
        ts.add("a", 1.5)
        assert ts.score_of("a") == 1.5
        with pytest.raises(KeyError):
            ts.score_of("b")

    def test_get_all_ascending_and_descending(self):
        ts = ScoredTreeSet()
        for sid, score in (("a", 2.0), ("b", 1.0), ("c", 3.0)):
            ts.add(sid, score)
        assert ts.get_all() == [("b", 1.0), ("a", 2.0), ("c", 3.0)]
        assert ts.get_all_descending() == [("c", 3.0), ("a", 2.0), ("b", 1.0)]

    def test_negative_scores(self):
        ts = ScoredTreeSet()
        ts.add("neg", -1.0)
        ts.add("pos", 1.0)
        assert ts.find_min() == ("neg", -1.0)


class TestBoundedTopK:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            BoundedTopK(0)

    def test_fills_to_k(self):
        topk = BoundedTopK(3)
        assert topk.offer("a", 1.0)
        assert topk.offer("b", 2.0)
        assert topk.offer("c", 0.5)
        assert len(topk) == 3
        assert topk.threshold() == 0.5

    def test_threshold_none_until_full(self):
        topk = BoundedTopK(2)
        assert topk.threshold() is None
        topk.offer("a", 1.0)
        assert topk.threshold() is None
        topk.offer("b", 2.0)
        assert topk.threshold() == 1.0

    def test_eviction(self):
        topk = BoundedTopK(2)
        topk.offer("a", 1.0)
        topk.offer("b", 2.0)
        assert topk.offer("c", 3.0)
        assert len(topk) == 2
        results = topk.results_descending()
        assert [sid for sid, _ in results] == ["c", "b"]

    def test_rejects_below_threshold(self):
        topk = BoundedTopK(2)
        topk.offer("a", 5.0)
        topk.offer("b", 4.0)
        assert not topk.offer("c", 3.0)
        assert "c" not in topk

    def test_tie_with_minimum_rejected(self):
        """Paper Algorithm 2 uses strict comparison: ties keep incumbents."""
        topk = BoundedTopK(2)
        topk.offer("a", 2.0)
        topk.offer("b", 1.0)
        assert not topk.offer("c", 1.0)
        assert "b" in topk

    def test_results_best_first(self):
        topk = BoundedTopK(5)
        rng = random.Random(3)
        scores = {f"s{i}": rng.random() for i in range(20)}
        for sid, score in scores.items():
            topk.offer(sid, score)
        results = topk.results_descending()
        expected = sorted(scores.items(), key=lambda kv: -kv[1])[:5]
        assert [sid for sid, _ in results] == [sid for sid, _ in expected]

    def test_k_property(self):
        assert BoundedTopK(7).k == 7

    def test_contains(self):
        topk = BoundedTopK(1)
        topk.offer("a", 1.0)
        assert "a" in topk
        topk.offer("b", 2.0)
        assert "a" not in topk
        assert "b" in topk


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), max_size=100),
    st.integers(1, 10),
)
def test_property_bounded_topk_equals_sorted_topk(scores, k):
    """Offering any score stream retains exactly the k highest.

    Ties at the k-th boundary may resolve either way (Definition 3 leaves
    that to the implementation), so the comparison is on score multisets.
    """
    topk = BoundedTopK(k)
    for index, score in enumerate(scores):
        topk.offer(f"s{index}", score)
    got = sorted((score for _, score in topk.results_descending()), reverse=True)
    expected = sorted(scores, reverse=True)[:k]
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.floats(-5, 5, allow_nan=False)), max_size=80))
def test_property_scored_treeset_remove_min_is_sorted(pairs):
    """Draining via remove_min yields scores in ascending order."""
    ts = ScoredTreeSet()
    seen = set()
    inserted = []
    for sid, score in pairs:
        if sid in seen:
            continue
        seen.add(sid)
        ts.add(sid, score)
        inserted.append(score)
    drained = [ts.remove_min()[1] for _ in range(len(ts))]
    assert drained == sorted(inserted)


class _TreeSetTopK:
    """Reference top-k: a ScoredTreeSet under find_min / remove_min / add."""

    def __init__(self, k):
        self.k = k
        self.entries = ScoredTreeSet()

    def offer(self, sid, score):
        if len(self.entries) < self.k:
            self.entries.add(sid, score)
            return True
        _min_sid, min_score = self.entries.find_min()
        if score > min_score:
            self.entries.remove_min()
            self.entries.add(sid, score)
            return True
        return False

    def threshold(self):
        if len(self.entries) < self.k:
            return None
        return self.entries.find_min()[1]


#: A small pool so ties at the k-th boundary are common.
_SCORE_POOL = st.sampled_from([0.0, -0.0, -2.5, -1.0, 0.5, 1.0, 1.0 + 1e-12, 2.0, 3.0])


def _sid_streams():
    """Unique int sids in some examples, unique str sids in others."""
    ints = st.lists(st.integers(-50, 50), unique=True, max_size=60)
    strs = st.lists(st.text("abcxyz", min_size=1, max_size=3), unique=True, max_size=60)
    return st.one_of(ints, strs)


@settings(max_examples=200, deadline=None)
@given(_sid_streams(), st.data(), st.integers(1, 12))
def test_property_heap_replays_treeset_topk(sids, data, k):
    """The heap admits, evicts and orders exactly what the tree set did."""
    scores = data.draw(st.lists(_SCORE_POOL, min_size=len(sids), max_size=len(sids)))
    topk = BoundedTopK(k)
    reference = _TreeSetTopK(k)
    for sid, score in zip(sids, scores):
        assert topk.offer(sid, score) == reference.offer(sid, score)
        assert len(topk) == len(reference.entries)
        assert topk.threshold() == reference.threshold()
        for held in sids:
            assert (held in topk) == (held in reference.entries)
    assert topk.results_descending() == reference.entries.get_all_descending()


class TestBoundedTopKDuplicates:
    def test_admitting_held_sid_raises_while_filling(self):
        topk = BoundedTopK(3)
        topk.offer("a", 1.0)
        with pytest.raises(KeyError):
            topk.offer("a", 2.0)
        assert topk.results_descending() == [("a", 1.0)]

    def test_admitting_held_sid_raises_when_full(self):
        topk = BoundedTopK(2)
        topk.offer("a", 1.0)
        topk.offer("b", 2.0)
        with pytest.raises(KeyError):
            topk.offer("b", 3.0)
        assert topk.results_descending() == [("b", 2.0), ("a", 1.0)]

    def test_rejected_duplicate_is_not_an_error(self):
        topk = BoundedTopK(1)
        topk.offer("a", 2.0)
        assert not topk.offer("a", 1.0)
