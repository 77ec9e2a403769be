"""Behavioural tests for the structure-of-arrays matching engine.

The bitwise score equivalence with the reference engine lives in
``tests/structures/test_soa_differential.py``; this module covers the
engine's own contracts — backend selection, slot interning under churn,
UNKNOWN handling — and that the engine slots into every wrapper the
reference engine does: the thread-safe wrapper, the instrumented
wrapper, and the distributed leaf.
"""

import random
import sys
import threading

import pytest

from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.attributes import UNKNOWN, Interval
from repro.core.concurrent import ThreadSafeMatcher
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.results import MatchResult
from repro.core.scoring import Aggregation
from repro.core.stats import InstrumentedMatcher
from repro.core.subscriptions import Constraint, Subscription
from repro.structures.soa import numpy_available

from tests.helpers import random_event, random_subscriptions

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def sub(sid, *constraints):
    return Subscription(sid, list(constraints))


def ranged(attribute, low, high, weight=1.0):
    return Constraint(attribute, Interval(low, high), weight)


class TestBackendSelection:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ArrayTopKMatcher(backend="fortran")

    def test_auto_resolves_to_concrete_backend(self):
        matcher = ArrayTopKMatcher(backend="auto")
        expected = "numpy" if numpy_available() else "python"
        assert matcher.backend == expected

    def test_python_backend_always_available(self):
        assert ArrayTopKMatcher(backend="python").backend == "python"

    @pytest.mark.skipif(numpy_available(), reason="covers the no-numpy case")
    def test_explicit_numpy_without_numpy_raises(self):
        with pytest.raises(ValueError):
            ArrayTopKMatcher(backend="numpy")

    def test_aggregation_without_columnar_scatter_folds_in_python(self):
        product = Aggregation("product", 1.0, lambda a, b: a * b, False)
        assert ArrayTopKMatcher(aggregation=product).backend == "python"
        with pytest.raises(ValueError):
            ArrayTopKMatcher(backend="numpy", aggregation=product)


class TestEngineBehaviour:
    def test_unknown_attribute_contributes_nothing(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(
            sub("s1", ranged("age", 0, 10, 2.0), Constraint("state", "IN", 3.0))
        )
        assert matcher.match(Event({"age": 5, "state": UNKNOWN}), k=1) == [
            MatchResult("s1", 2.0)
        ]

    def test_match_validates_k(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(sub("s1", ranged("age", 0, 10)))
        with pytest.raises(ValueError):
            matcher.match(Event({"age": 5}), k=0)
        with pytest.raises(ValueError):
            matcher.match_batch([Event({"age": 5})], k=0)

    def test_slots_recycled_after_cancel(self):
        matcher = ArrayTopKMatcher(backend="python")
        for i in range(5):
            matcher.add_subscription(sub(f"s{i}", ranged("age", i, i + 1)))
        matcher.cancel_subscription("s2")
        matcher.cancel_subscription("s4")
        slot_count = len(matcher._sid_of)
        matcher.add_subscription(sub("fresh-a", ranged("age", 0, 9)))
        matcher.add_subscription(sub("fresh-b", ranged("age", 0, 9)))
        assert len(matcher._sid_of) == slot_count  # reused, not grown
        results = matcher.match(Event({"age": 3}), k=10)
        assert {r.sid for r in results} == {"s3", "fresh-a", "fresh-b"}

    def test_cancelled_subscription_never_resurfaces(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(sub("s1", ranged("age", 0, 10)))
        matcher.add_subscription(sub("s2", ranged("age", 0, 10)))
        matcher.ensure_built()
        matcher.cancel_subscription("s1")
        assert [r.sid for r in matcher.match(Event({"age": 5}), k=5)] == ["s2"]

    def test_ensure_built_is_idempotent(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(sub("s1", ranged("age", 0, 10)))
        matcher.ensure_built()
        matcher.ensure_built()
        assert matcher.match(Event({"age": 5}), k=1) == [MatchResult("s1", 1.0)]

    def test_empty_matcher_matches_nothing(self):
        assert ArrayTopKMatcher(backend="python").match(Event({"age": 1}), k=3) == []


class TestWrapperIntegration:
    def build(self, matcher):
        matcher.add_subscription(
            sub("s1", ranged("age", 18, 24, 2.0), Constraint("state", "IN", 1.0))
        )
        matcher.add_subscription(sub("s2", ranged("age", 30, 50, 1.0)))
        return matcher

    def test_thread_safe_wrapper(self):
        wrapped = ThreadSafeMatcher(self.build(ArrayTopKMatcher(backend="python")))
        assert wrapped.name == "fx-tm-array"
        event = Event({"age": 20, "state": "IN"})
        assert wrapped.match(event, k=2) == [MatchResult("s1", 3.0)]
        assert wrapped.match_batch([event], k=2) == [[MatchResult("s1", 3.0)]]
        wrapped.cancel_subscription("s1")
        assert len(wrapped) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_concurrent_matches_agree_with_sequential(self, backend):
        """Matches share the read lock, so each thread needs its own
        accumulator: interleaved folds must not leak into each other."""
        rng = random.Random(17)
        matcher = ArrayTopKMatcher(backend=backend, prorate=True)
        for subscription in random_subscriptions(rng, 3000, with_sets=True):
            matcher.add_subscription(subscription)
        matcher.ensure_built()
        events = [random_event(rng) for _ in range(200)]
        expected = [matcher.match(event, 10) for event in events]
        wrapped = ThreadSafeMatcher(matcher)
        mismatches = []
        errors = []

        def worker(offset):
            try:
                for index in range(len(events)):
                    index = (index + offset) % len(events)
                    if wrapped.match(events[index], 10) != expected[index]:
                        mismatches.append(index)
            except Exception as error:  # pragma: no cover - test guard
                errors.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i * 50,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []

    def test_instrumented_wrapper_records_probe_cache(self):
        inner = self.build(ArrayTopKMatcher(backend="python"))
        instrumented = InstrumentedMatcher(inner)
        batch = [Event({"age": 20, "state": "IN"})] * 4
        results = instrumented.match_batch(batch, k=1)
        assert results == [[MatchResult("s1", 3.0)]] * 4
        # 2 probes (one per attribute) then 6 hits across the 3 repeats.
        assert instrumented.stats._probe_hit_ratio.value == pytest.approx(0.75)

    def test_distributed_leaf_factory(self):
        from repro.distributed import DistributedTopKSystem

        def factory():
            return ArrayTopKMatcher(backend="python", prorate=True)

        reference = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=4)
        arrayed = DistributedTopKSystem(factory, node_count=4)
        subscriptions = [
            sub(f"s{i}", ranged("age", i, i + 20, 1.0 + i * 0.25)) for i in range(30)
        ]
        reference.add_subscriptions(subscriptions)
        arrayed.add_subscriptions(subscriptions)
        event = Event({"age": Interval(10, 15)})
        ours = arrayed.match(event, k=5)
        theirs = reference.match(event, k=5)
        assert ours.results == theirs.results
        for a, b in zip(ours.results, theirs.results):
            assert a.score == b.score


class TestCliIntegration:
    def test_cli_runs_the_array_engine(self, capsys):
        from repro.cli import main

        import io
        import sys

        stdin = sys.stdin
        sys.stdin = io.StringIO("ADD ad-1 age in [18, 24] : 2.0\nMATCH 1 age: [20 .. 22]\n")
        try:
            code = main(["--algorithm", "fx-tm-array", "--prorate", "--backend", "python"])
        finally:
            sys.stdin = stdin
        assert code == 0
        out = capsys.readouterr().out
        assert "ok ADD ad-1" in out
        assert "match [ad-1=2.000]" in out
