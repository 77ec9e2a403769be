"""Unit tests for the structure-of-arrays probe substrates."""

import random

import pytest

from repro.errors import InvalidIntervalError
from repro.structures.soa import (
    SoADiscreteBucket,
    SoADiscreteIndex,
    SoARangedIndex,
    numpy_available,
)


def brute_candidates(index, qlo, qhi):
    return [
        i
        for i in range(len(index))
        if index.los[i] <= qhi and index.his[i] >= qlo
    ]


class TestSoARangedIndex:
    def test_insert_keeps_low_high_sid_order(self):
        index = SoARangedIndex()
        index.insert(5, 9, "b", 1.0, slot=0)
        index.insert(5, 9, "a", 2.0, slot=1)
        index.insert(1, 3, "z", 3.0, slot=2)
        index.insert(5, 7, "z", 4.0, slot=3)
        assert [sid for _, _, sid in index._keys] == ["z", "z", "a", "b"]
        assert index.los == [1, 5, 5, 5]
        assert index.his == [3, 7, 9, 9]
        assert index.weights == [3.0, 4.0, 2.0, 1.0]
        assert index.slots == [2, 3, 1, 0]

    def test_duplicate_insert_and_missing_delete_raise(self):
        index = SoARangedIndex()
        index.insert(0, 1, "s", 1.0, slot=0)
        with pytest.raises(KeyError):
            index.insert(0, 1, "s", 2.0, slot=1)
        with pytest.raises(KeyError):
            index.delete(0, 2, "s")
        index.delete(0, 1, "s")
        assert len(index) == 0

    def test_inverted_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            SoARangedIndex().insert(5, 4, "s", 1.0, slot=0)

    def test_candidates_match_brute_force(self):
        rng = random.Random(3)
        index = SoARangedIndex()
        for i in range(500):
            low = rng.randint(0, 1000)
            index.insert(low, low + rng.randint(0, 80), f"s{i}", 1.0, slot=i)
        for _ in range(200):
            qlo = rng.randint(-50, 1100)
            qhi = qlo + rng.randint(0, 120)
            assert index.candidates(qlo, qhi) == brute_candidates(index, qlo, qhi)

    def test_candidates_after_deletions(self):
        rng = random.Random(4)
        index = SoARangedIndex()
        entries = []
        for i in range(300):
            low = rng.randint(0, 400)
            high = low + rng.randint(0, 40)
            index.insert(low, high, f"s{i}", 1.0, slot=i)
            entries.append((low, high, f"s{i}"))
        rng.shuffle(entries)
        for low, high, sid in entries[:150]:
            index.delete(low, high, sid)
        for _ in range(100):
            qlo = rng.randint(-20, 450)
            qhi = qlo + rng.randint(0, 60)
            assert index.candidates(qlo, qhi) == brute_candidates(index, qlo, qhi)

    def test_view_is_epoch_stamped_and_atomic(self):
        index = SoARangedIndex()
        for i in range(130):
            index.insert(i, i + 5, f"s{i}", 1.0, slot=i)
        view = index.ensure_view()
        assert view[0] == index._epoch
        assert view is index.ensure_view()  # cached, not rebuilt
        index.insert(999, 1000, "late", 1.0, slot=999)
        rebuilt = index.ensure_view()
        assert rebuilt is not view
        assert rebuilt[0] == index._epoch
        # Skip table covers every 64-entry block with its true maximum.
        block_max = rebuilt[2]
        assert len(block_max) == (len(index) + 63) // 64
        for block, maximum in enumerate(block_max):
            chunk = index.his[block * 64:(block + 1) * 64]
            assert maximum == max(chunk)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
    def test_numpy_view_and_candidates(self):
        rng = random.Random(5)
        index = SoARangedIndex()
        for i in range(200):
            low = rng.randint(0, 500)
            index.insert(low, low + rng.randint(0, 50), f"s{i}", 1.0, slot=i)
        view = index.ensure_view(want_numpy=True)
        assert view[1] and view[4] is not None
        for _ in range(100):
            qlo = rng.randint(-10, 520)
            qhi = qlo + rng.randint(0, 80)
            assert index.candidate_array(qlo, qhi).tolist() == brute_candidates(
                index, qlo, qhi
            )

    @pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
    def test_numpy_mirrors_refused_for_inexact_endpoints(self):
        index = SoARangedIndex()
        index.insert(2**60 + 1, 2**60 + 3, "big", 1.0, slot=0)
        view = index.ensure_view(want_numpy=True)
        assert view[4] is None  # no float64 mirror: it would round
        assert index.candidate_array(2**60 + 2, 2**60 + 2) is None
        # The scalar path still answers exactly.
        assert index.candidates(2**60 + 2, 2**60 + 2) == [0]

    def test_python_view_never_builds_numpy_mirrors(self):
        index = SoARangedIndex()
        index.insert(0, 1, "s", 1.0, slot=0)
        view = index.ensure_view(want_numpy=False)
        assert view[3] is None and view[4] is None


class TestSoADiscrete:
    def test_bucket_stays_sid_sorted(self):
        bucket = SoADiscreteBucket()
        for sid, weight, slot in (("m", 1.0, 0), ("a", 2.0, 1), ("z", 3.0, 2)):
            bucket.add(sid, weight, slot)
        assert bucket.sids == ["a", "m", "z"]
        assert bucket.weights == [2.0, 1.0, 3.0]
        assert bucket.slots == [1, 0, 2]
        with pytest.raises(KeyError):
            bucket.add("a", 9.0, 9)
        bucket.remove("m")
        assert bucket.sids == ["a", "z"]
        with pytest.raises(KeyError):
            bucket.remove("m")

    def test_set_constraints_index_under_every_member(self):
        index = SoADiscreteIndex()
        index.insert(("IN", "OH"), "s1", 1.5, slot=0)
        index.insert(("IN",), "s2", 2.5, slot=1)
        assert len(index) == 2
        assert index.buckets["IN"].sids == ["s1", "s2"]
        assert index.buckets["OH"].sids == ["s1"]
        index.delete(("IN", "OH"), "s1")
        assert "OH" not in index.buckets
        assert index.buckets["IN"].sids == ["s2"]
        assert len(index) == 1
