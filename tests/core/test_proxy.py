"""Wrapper-stack conformance: every matcher wrapper presents the whole
``TopKMatcher`` surface, and wrappers stack in either order.

Each stack is driven through the same controller requests, snapshot
round trip and direct calls as the bare engine, and must answer with
``==`` results.
"""

import json

import pytest

from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.concurrent import ThreadSafeMatcher
from repro.core.controller import LocalController
from repro.core.interfaces import MatcherProxy, TopKMatcher
from repro.core.matcher import FXTMMatcher
from repro.core.parser import parse_event, parse_subscription
from repro.core.snapshot import restore_into, save_matcher
from repro.core.stats import InstrumentedMatcher
from repro.obs.tracing import Tracer
from repro.structures.soa import numpy_available


def instrumented(inner):
    return InstrumentedMatcher(inner, tracer=Tracer())


STACKS = {
    "bare": lambda inner: inner,
    "instrumented": instrumented,
    "threadsafe": ThreadSafeMatcher,
    "threadsafe-over-instrumented": lambda inner: ThreadSafeMatcher(instrumented(inner)),
    "instrumented-over-threadsafe": lambda inner: instrumented(ThreadSafeMatcher(inner)),
}

ADDS = [
    "ADD s1 age in [18, 24] : 2.0 and state in {Indiana} : 1.0",
    "ADD s2 age in [20, 40] : 1.5",
    "ADD s3 state in {Indiana, Ohio} : 0.5 and price in [10, 90] : 1.0",
    "ADD s4 price in [0, 50] : 3.0",
]
REQUESTS = ADDS + [
    "MATCH 3 age: [20 .. 30], state: Indiana",
    "BATCH 2 price: 42 ; age: 22, state: Ohio ; price: [40 .. 60]",
    "CANCEL s2",
    "MATCH 3 age: [20 .. 30], state: Indiana, price: 42",
]
EVENT = "MATCH 4 age: 21, state: Ohio, price: 30"


def stack(name):
    return STACKS[name](FXTMMatcher(prorate=True))


def answers(controller, lines):
    return [
        (response.ok, response.error, response.results, response.batch_results)
        for response in map(controller.submit, lines)
    ]


@pytest.mark.parametrize("name", sorted(STACKS))
def test_controller_requests_equal_the_bare_engine(name):
    bare = LocalController(FXTMMatcher(prorate=True))
    wrapped_matcher = stack(name)
    wrapped = LocalController(wrapped_matcher)
    assert answers(wrapped, REQUESTS) == answers(bare, REQUESTS)

    if "instrumented" in name:
        metrics = wrapped.submit("METRICS")
        assert metrics.ok, metrics.error
        document = json.loads(metrics.payload)
        assert document["repro_matches_total"]["values"][0]["value"] == 2.0
        assert wrapped.submit("METRICS prom").ok
        trace = wrapped.submit("TRACE text")
        assert trace.ok, trace.error
        assert "match" in trace.payload

    replacement = parse_subscription("s4", "price in [0, 35] : 0.25")
    previous = wrapped_matcher.update_subscription(replacement)
    assert previous == bare.matcher.update_subscription(replacement)
    assert wrapped_matcher.get_subscription("s4") == bare.matcher.get_subscription("s4")
    assert answers(wrapped, [EVENT]) == answers(bare, [EVENT])
    assert len(wrapped_matcher) == len(bare.matcher) == 3
    assert "s2" not in wrapped_matcher


@pytest.mark.parametrize("name", sorted(STACKS))
def test_snapshot_round_trip(name, tmp_path):
    source = stack(name)
    assert all(response.ok for response in LocalController(source).run(ADDS))
    path = tmp_path / "snapshot.jsonl"
    assert save_matcher(source, path) == len(ADDS)

    restored = stack(name)
    assert restore_into(restored, path) == len(ADDS)
    assert restored.subscriptions == source.subscriptions
    bare = LocalController(FXTMMatcher(prorate=True))
    answers(bare, ADDS)
    assert answers(LocalController(restored), [EVENT]) == answers(bare, [EVENT])


def test_every_public_member_is_forwarded_by_the_base():
    class Minimal(TopKMatcher):
        def _index_subscription(self, subscription):
            pass

        def _deindex_subscription(self, subscription):
            pass

        def _match_topk(self, event, k):
            return []

    surface = {name for name in dir(Minimal()) if not name.startswith("_")}
    surface |= {"__len__", "__contains__"}
    assert surface - set(vars(MatcherProxy)) == set()
    assert not hasattr(MatcherProxy, "__getattr__")


def test_locked_subscriptions_are_a_copy():
    safe = ThreadSafeMatcher(FXTMMatcher())
    assert all(response.ok for response in LocalController(safe).run(ADDS))
    assert safe.subscriptions == safe.inner.subscriptions
    assert safe.subscriptions is not safe.inner.subscriptions


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_metrics_label_the_engine_backend_through_a_lock():
    wrapped = InstrumentedMatcher(ThreadSafeMatcher(ArrayTopKMatcher(backend="numpy")))
    assert wrapped.backend == "numpy"
    wrapped.add_subscription(parse_subscription("s", "price in [0, 50]"))
    wrapped.match(parse_event("price: 30"), 1)
    labels = wrapped.registry.snapshot()["repro_matches_total"]["values"][0]["labels"]
    assert labels == {"algorithm": "fx-tm-array", "backend": "numpy"}
