"""Interval tree: overlap queries checked against brute force."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidIntervalError
from repro.structures.interval_tree import _FLAT_BLOCK, _PATCH_LIMIT, IntervalTree


def brute_force_stab(entries, qlo, qhi):
    return sorted(
        (low, high, sid, weight)
        for (low, high, sid, weight) in entries
        if low <= qhi and high >= qlo
    )


class TestBasics:
    def test_empty(self):
        tree = IntervalTree()
        assert len(tree) == 0
        assert not tree
        assert tree.stab(0, 100) == []

    def test_single_interval_hit(self):
        tree = IntervalTree()
        tree.insert(10, 20, "s1", 0.5)
        assert tree.stab(15, 15) == [(10, 20, "s1", 0.5)]

    def test_single_interval_miss(self):
        tree = IntervalTree()
        tree.insert(10, 20, "s1", 0.5)
        assert tree.stab(21, 30) == []
        assert tree.stab(0, 9) == []

    def test_endpoints_inclusive(self):
        tree = IntervalTree()
        tree.insert(10, 20, "s1", 1.0)
        assert tree.stab(20, 25) == [(10, 20, "s1", 1.0)]
        assert tree.stab(5, 10) == [(10, 20, "s1", 1.0)]

    def test_point_interval(self):
        tree = IntervalTree()
        tree.insert(5, 5, "point", 1.0)
        assert tree.stab_point(5) == [(5, 5, "point", 1.0)]
        assert tree.stab_point(5.0001) == []

    def test_invalid_interval_raises(self):
        tree = IntervalTree()
        with pytest.raises(InvalidIntervalError):
            tree.insert(10, 5, "bad", 0.0)

    def test_invalid_query_raises(self):
        tree = IntervalTree()
        with pytest.raises(InvalidIntervalError):
            tree.stab(10, 5)

    def test_duplicate_entry_raises(self):
        tree = IntervalTree()
        tree.insert(1, 2, "s", 0.0)
        with pytest.raises(KeyError):
            tree.insert(1, 2, "s", 0.0)

    def test_same_interval_different_sids_ok(self):
        tree = IntervalTree()
        tree.insert(1, 2, "a", 0.1)
        tree.insert(1, 2, "b", 0.2)
        assert len(tree) == 2
        assert {sid for _, _, sid, _ in tree.stab(1, 2)} == {"a", "b"}

    def test_delete(self):
        tree = IntervalTree()
        tree.insert(1, 5, "a", 0.0)
        tree.insert(3, 9, "b", 0.0)
        tree.delete(1, 5, "a")
        assert len(tree) == 1
        assert [sid for _, _, sid, _ in tree.stab(0, 10)] == ["b"]

    def test_delete_missing_raises(self):
        tree = IntervalTree()
        tree.insert(1, 5, "a", 0.0)
        with pytest.raises(KeyError):
            tree.delete(1, 5, "other")

    def test_clear(self):
        tree = IntervalTree()
        for i in range(10):
            tree.insert(i, i + 1, i, 0.0)
        tree.clear()
        assert len(tree) == 0
        assert tree.stab(0, 100) == []

    def test_items_in_key_order(self):
        tree = IntervalTree()
        tree.insert(5, 9, "b", 0.0)
        tree.insert(1, 3, "a", 0.0)
        tree.insert(5, 7, "c", 0.0)
        assert [e[:2] for e in tree.items()] == [(1, 3), (5, 7), (5, 9)]

    def test_weights_returned(self):
        tree = IntervalTree()
        tree.insert(0, 10, "neg", -1.5)
        assert tree.stab(5, 5)[0][3] == -1.5

    def test_infinite_endpoints(self):
        tree = IntervalTree()
        tree.insert(101, float("inf"), "open", 1.0)
        assert tree.stab(50, 100) == []
        assert [sid for _, _, sid, _ in tree.stab(1000, 2000)] == ["open"]


class TestBulkCorrectness:
    def test_random_against_brute_force(self):
        rng = random.Random(13)
        tree = IntervalTree()
        entries = []
        for sid in range(500):
            low = rng.uniform(0, 1000)
            high = low + rng.uniform(0, 50)
            weight = rng.uniform(-1, 1)
            tree.insert(low, high, sid, weight)
            entries.append((low, high, sid, weight))
        tree.check_invariants()
        for _ in range(100):
            qlo = rng.uniform(0, 1000)
            qhi = qlo + rng.uniform(0, 30)
            assert sorted(tree.stab(qlo, qhi)) == brute_force_stab(entries, qlo, qhi)

    def test_random_with_deletions(self):
        rng = random.Random(29)
        tree = IntervalTree()
        entries = {}
        for step in range(1500):
            if entries and rng.random() < 0.4:
                key = rng.choice(list(entries))
                weight = entries.pop(key)
                tree.delete(*key)
            else:
                low = rng.randrange(100)
                high = low + rng.randrange(20)
                sid = step
                tree.insert(low, high, sid, 0.0)
                entries[(low, high, sid)] = 0.0
            if step % 300 == 0:
                tree.check_invariants()
        tree.check_invariants()
        all_entries = [(lo, hi, sid, w) for (lo, hi, sid), w in entries.items()]
        for qlo in range(0, 100, 7):
            assert sorted(tree.stab(qlo, qlo + 5)) == brute_force_stab(
                all_entries, qlo, qlo + 5
            )

    def test_ascending_inserts_stay_balanced(self):
        tree = IntervalTree()
        for i in range(1024):
            tree.insert(i, i + 1, i, 0.0)
        tree.check_invariants()
        # AVL height bound: 1.44 * log2(n) + 2.
        assert tree._root.height <= 17

    def test_nested_intervals(self):
        tree = IntervalTree()
        for i in range(50):
            tree.insert(50 - i, 50 + i, i, 0.0)
        hits = tree.stab(50, 50)
        assert len(hits) == 50

    def test_disjoint_intervals_output_sensitive(self):
        tree = IntervalTree()
        for i in range(100):
            tree.insert(i * 10, i * 10 + 5, i, 0.0)
        assert [sid for _, _, sid, _ in tree.stab(46, 49)] == []
        assert [sid for _, _, sid, _ in tree.stab(40, 44)] == [4]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 100),
            st.integers(0, 40),
            st.floats(-2, 2, allow_nan=False),
        ),
        max_size=80,
    ),
    st.integers(0, 120),
    st.integers(0, 30),
)
def test_property_stab_equals_brute_force(raw, qlo, span):
    """Any interval set, any query: tree output == brute-force filter."""
    tree = IntervalTree()
    entries = []
    for sid, (low, width, weight) in enumerate(raw):
        tree.insert(low, low + width, sid, weight)
        entries.append((low, low + width, sid, weight))
    qhi = qlo + span
    assert sorted(tree.stab(qlo, qhi)) == brute_force_stab(entries, qlo, qhi)
    tree.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)), min_size=1, max_size=60),
    st.data(),
)
def test_property_delete_then_query(raw, data):
    """After deleting any subset, queries reflect exactly the remainder."""
    tree = IntervalTree()
    entries = []
    for sid, (low, width) in enumerate(raw):
        tree.insert(low, low + width, sid, 1.0)
        entries.append((low, low + width, sid, 1.0))
    doomed = data.draw(st.lists(st.sampled_from(entries), unique=True))
    for low, high, sid, _ in doomed:
        tree.delete(low, high, sid)
    surviving = [e for e in entries if e not in doomed]
    assert sorted(tree.stab(0, 100)) == brute_force_stab(surviving, 0, 100)
    tree.check_invariants()


class TestFlattenedStabView:
    """The lazily built flat-array stab path stays equivalent to the tree.

    ``stab`` answers from parallel sorted arrays rebuilt on a mutation
    epoch; these tests interleave stabs with inserts/deletes/clears so a
    stale or mis-built view would produce wrong answers.
    """

    def test_view_invalidated_by_insert(self):
        tree = IntervalTree()
        tree.insert(0, 10, "a", 1.0)
        assert [sid for _, _, sid, _ in tree.stab(5, 5)] == ["a"]
        tree.insert(3, 7, "b", 1.0)  # must invalidate the built view
        assert [sid for _, _, sid, _ in tree.stab(5, 5)] == ["a", "b"]

    def test_view_invalidated_by_delete(self):
        tree = IntervalTree()
        tree.insert(0, 10, "a", 1.0)
        tree.insert(3, 7, "b", 1.0)
        assert len(tree.stab(5, 5)) == 2
        tree.delete(0, 10, "a")
        assert [sid for _, _, sid, _ in tree.stab(5, 5)] == ["b"]

    def test_view_invalidated_by_clear(self):
        tree = IntervalTree()
        tree.insert(0, 10, "a", 1.0)
        assert tree.stab(5, 5)
        tree.clear()
        assert tree.stab(5, 5) == []
        tree.insert(2, 4, "c", 0.5)
        assert [sid for _, _, sid, _ in tree.stab(3, 3)] == ["c"]

    def test_stab_output_is_key_sorted(self):
        tree = IntervalTree()
        rng = random.Random(7)
        for sid in range(300):
            low = rng.randint(0, 500)
            tree.insert(low, low + rng.randint(0, 50), sid, 1.0)
        hits = tree.stab(100, 400)
        assert hits == sorted(hits)

    def test_bulk_loaded_tree_stabs_through_flat_view(self):
        entries = [(i, i + 5, f"s{i}", 0.1) for i in range(0, 200, 3)]
        tree = IntervalTree.from_entries(entries)
        assert sorted(tree.stab(50, 60)) == brute_force_stab(entries, 50, 60)

    def test_fuzz_interleaved_mutations_match_brute_force(self):
        """Randomized insert/delete/clear/stab schedule vs. brute force."""
        rng = random.Random(0xF17)
        tree = IntervalTree()
        shadow = []
        next_sid = 0
        for step in range(2000):
            op = rng.random()
            if op < 0.45 or not shadow:
                low = rng.randint(0, 1000)
                entry = (low, low + rng.randint(0, 120), next_sid, rng.uniform(-1, 1))
                tree.insert(*entry)
                shadow.append(entry)
                next_sid += 1
            elif op < 0.70:
                victim = shadow.pop(rng.randrange(len(shadow)))
                tree.delete(victim[0], victim[1], victim[2])
            elif op < 0.705:
                tree.clear()
                shadow.clear()
            else:
                qlo = rng.randint(0, 1100)
                qhi = qlo + rng.randint(0, 200)
                assert tree.stab(qlo, qhi) == brute_force_stab(shadow, qlo, qhi)
        tree.check_invariants()
        assert sorted(tree.stab(0, 1200)) == brute_force_stab(shadow, 0, 1200)


def assert_patched_view_equals_rebuild(tree):
    """The published view is current and equals a fresh rebuild: the
    same nodes (the tree's own, not detached ones) in key order and an
    ``==`` skip table."""
    patched = tree._flat
    assert patched is not None and patched[0] == tree._epoch
    rebuilt = tree._build_flat()
    tree._flat = patched  # later writes keep patching the patched view
    assert [node.key() for node in patched[1]] == [node.key() for node in rebuilt[1]]
    assert all(mine is theirs for mine, theirs in zip(patched[1], rebuilt[1]))
    assert patched[2] == rebuilt[2]


class TestFlatViewPatching:
    """Writes patch a current flat view instead of leaving it stale.

    Each patch copies the node list with the entry inserted or removed
    and recomputes the 64-entry skip table from the touched block on;
    the result must be indistinguishable from a rebuild, or stab results
    and the heat monitor's scan counts would drift under churn.
    """

    @pytest.mark.parametrize("start", [0, 1, 63, 64, 65, 129])
    def test_patched_view_equals_rebuild_after_every_write(self, start):
        rng = random.Random(0x9A7C + start)
        tree = IntervalTree()
        live = {}

        def fresh(sid):
            # Few distinct lows: many entries share a low and differ
            # only in high and sid.
            low = rng.randint(0, 20)
            return (low, low + rng.randint(0, 15), sid, rng.uniform(-1, 1))

        for sid in range(start):
            entry = fresh(sid)
            tree.insert(*entry)
            live[entry[:3]] = entry
        next_sid = start
        deletes = {"two-child": 0, "block-first": 0, "block-last": 0}
        for _ in range(400):
            # A read before each write re-arms patching.
            qlo = rng.randint(0, 40)
            qhi = qlo + rng.randint(0, 10)
            assert tree.stab(qlo, qhi) == brute_force_stab(live.values(), qlo, qhi)
            had_view = tree._flat is not None
            roll = rng.random()
            if not live or roll < 0.5:
                entry = fresh(next_sid)
                next_sid += 1
                tree.insert(*entry)
                live[entry[:3]] = entry
            else:
                ordered = tree._flat[1]
                root = tree._root
                block = rng.randrange(0, len(ordered), _FLAT_BLOCK)
                if roll < 0.6 and root.left is not None and root.right is not None:
                    key, kind = root.key(), "two-child"
                elif roll < 0.7:
                    key, kind = ordered[block].key(), "block-first"
                elif roll < 0.8:
                    last = min(block + _FLAT_BLOCK, len(ordered)) - 1
                    key, kind = ordered[last].key(), "block-last"
                else:
                    key, kind = rng.choice(list(live)), None
                if kind is not None:
                    deletes[kind] += 1
                tree.delete(*key)
                del live[key]
            # Only the first insert into a never-read empty tree has no
            # view to patch.
            assert had_view or len(tree) == 1
            if had_view:
                assert_patched_view_equals_rebuild(tree)
        tree.check_invariants()
        assert all(deletes.values()), deletes

    def test_write_burst_past_the_limit_leaves_view_stale_until_next_stab(self):
        rng = random.Random(0xB0257)
        entries = []
        for sid in range(200):
            low = rng.randint(0, 500)
            entries.append((low, low + rng.randint(0, 60), sid, 1.0))
        tree = IntervalTree.from_entries(entries)
        tree.stab(0, 0)
        for sid in range(200, 200 + _PATCH_LIMIT):
            low = rng.randint(0, 500)
            entries.append((low, low + 30, sid, 1.0))
            tree.insert(*entries[-1])
            assert tree._flat[0] == tree._epoch  # patched
        burst = tree._flat
        victim = entries.pop(rng.randrange(len(entries)))
        tree.delete(*victim[:3])
        entries.append((250, 260, "late", 1.0))
        tree.insert(*entries[-1])
        # Past the limit the view is left as it was: stale, not patched.
        assert tree._flat is burst and burst[0] != tree._epoch
        assert tree.stab(200, 300) == brute_force_stab(entries, 200, 300)
        assert_patched_view_equals_rebuild(tree)  # the stab rebuilt it
        # The read re-armed patching for the next write.
        tree.delete(250, 260, "late")
        entries.pop()
        assert_patched_view_equals_rebuild(tree)
        assert tree.stab(0, 600) == brute_force_stab(entries, 0, 600)

    def test_retained_view_is_never_changed_by_a_patch(self):
        tree = IntervalTree.from_entries([(i, i + 3, i, 1.0) for i in range(130)])
        view = tree._flat
        keys = [node.key() for node in view[1]]
        block_max = list(view[2])
        tree.insert(64, 70, "new", 1.0)
        tree.delete(0, 3, 0)
        assert tree._flat is not view
        assert [node.key() for node in view[1]] == keys
        assert view[2] == block_max


class TestFlatViewPublication:
    """The lazy flat-stab view must be published atomically.

    Regression tests for a torn-read race: the view used to live in two
    fields (``_flat`` arrays + a separate ``_flat_epoch`` stamp), so a
    reader under :class:`~repro.core.concurrent.ThreadSafeMatcher`'s
    *read* lock could pair stale arrays with a fresh epoch stamp written
    by a concurrent reader mid-rebuild.  The view is now a single
    ``(epoch, ordered, block_max)`` tuple, with the epoch sampled before
    the tree walk, assigned in one statement — a retained reference is
    always internally consistent and self-identifies as stale.
    """

    def test_published_view_carries_its_build_epoch(self):
        tree = IntervalTree()
        tree.insert(0, 10, "a", 1.0)
        tree.stab(5, 5)  # triggers the lazy rebuild
        view = tree._flat
        assert view is not None
        epoch, ordered, block_max = view  # atomically published as one tuple
        assert epoch == tree._epoch
        assert [node.sid for node in ordered] == ["a"]
        assert len(block_max) >= 1

    def test_retained_view_self_identifies_as_stale(self):
        tree = IntervalTree()
        tree.insert(0, 10, "a", 1.0)
        tree.stab(5, 5)
        view = tree._flat
        tree.insert(3, 7, "b", 1.0)  # advances the epoch, view now stale
        # The retained tuple is untouched (never mutated in place) and
        # its embedded epoch no longer matches the tree's.
        assert view is not None and view[0] != tree._epoch
        assert [node.sid for node in view[1]] == ["a"]
        # The next stab republishes a fresh, consistent tuple.
        assert [sid for _, _, sid, _ in tree.stab(5, 5)] == ["a", "b"]
        assert tree._flat is not view
        assert tree._flat[0] == tree._epoch

    def test_concurrent_first_stabs_rebuild_consistently(self):
        """Many threads race the lazy rebuild after each mutation.

        Every stab must see the post-mutation truth: a torn view (stale
        arrays with a fresh epoch stamp) would return results missing
        the newest entry.
        """
        import threading

        tree = IntervalTree()
        entries = []
        rng = random.Random(0xACE5)
        workers = 8
        rounds = 40
        barrier = threading.Barrier(workers + 1)
        errors = []

        def stabber():
            for _ in range(rounds):
                barrier.wait()  # mutation for this round is complete
                try:
                    expected = brute_force_stab(entries, 0, 2000)
                    got = tree.stab(0, 2000)  # races the other rebuilds
                    if sorted(got) != expected:
                        errors.append((sorted(got), expected))
                except Exception as error:  # noqa: BLE001 — surfaced below
                    errors.append(error)
                barrier.wait()  # round done; mutator may proceed

        threads = [threading.Thread(target=stabber) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for index in range(rounds):
            low = rng.randint(0, 1000)
            entry = (low, low + rng.randint(0, 100), index, 1.0)
            tree.insert(*entry)
            entries.append(entry)
            barrier.wait()  # release the stabbers onto the fresh epoch
            barrier.wait()  # wait for all stabs before mutating again
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]

    def test_concurrent_first_stabs_race_the_rebuild_after_a_burst(self):
        """Each round writes past the patch limit, so the round's view is
        stale and all readers race its lazy rebuild."""
        import sys
        import threading

        tree = IntervalTree()
        entries = []
        rng = random.Random(0xB0A5)
        workers = 8
        rounds = 30
        barrier = threading.Barrier(workers + 1, timeout=60)
        errors = []

        def stabber():
            for _ in range(rounds):
                barrier.wait()  # this round's burst is complete
                try:
                    expected = brute_force_stab(entries, 0, 2000)
                    got = tree.stab(0, 2000)  # races the other rebuilds
                    if got != expected:
                        errors.append((got, expected))
                except Exception as error:  # noqa: BLE001 — surfaced below
                    errors.append(error)
                barrier.wait()  # round done; mutator may proceed

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=stabber) for _ in range(workers)]
        try:
            for thread in threads:
                thread.start()
            for index in range(rounds):
                for offset in range(_PATCH_LIMIT + 1):
                    low = rng.randint(0, 1000)
                    entry = (low, low + rng.randint(0, 100), (index, offset), 1.0)
                    tree.insert(*entry)
                    entries.append(entry)
                stale = tree._flat is not None and tree._flat[0] != tree._epoch
                if index and not stale:
                    errors.append(f"round {index}: view not stale after the burst")
                barrier.wait()  # release the stabbers onto the stale view
                barrier.wait()  # wait for all stabs before writing again
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
