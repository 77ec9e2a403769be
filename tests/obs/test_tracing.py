"""Span-based tracing: nesting, simulated durations, exports, vocabulary."""

import json

import pytest

from repro.core.attributes import Interval
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.stats import InstrumentedMatcher
from repro.core.subscriptions import Constraint, Subscription
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.faults import FaultPlan
from repro.errors import ObservabilityError
from repro.obs.heat import HeatMonitor
from repro.obs.profile import PHASE_OF_FRAME
from repro.obs.tracing import SPAN_NAMES, Span, Tracer, aggregate_phases


class TestSpanLifecycle:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        trace = tracer.last_trace
        assert trace.name == "root"
        assert [child.name for child in trace.children] == ["child-a", "child-b"]
        assert trace.children[0].children[0].name == "grandchild"

    def test_end_without_begin_raises(self):
        with pytest.raises(ObservabilityError):
            Tracer().end()

    def test_exception_annotated_not_swallowed(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.last_trace.attributes["error"] == "ValueError"

    def test_record_attaches_finished_span(self):
        tracer = Tracer()
        with tracer.span("root"):
            tracer.record("hop", 0.25, leaf=3)
        hop = tracer.last_trace.children[0]
        assert hop.duration == 0.25
        assert hop.attributes["leaf"] == 3

    def test_record_outside_any_span_is_its_own_trace(self):
        tracer = Tracer()
        tracer.record("standalone", 1.0)
        assert tracer.last_trace.name == "standalone"

    def test_set_duration_overrides_wall_time(self):
        span = Span("x", start=0.0)
        span.end = 100.0
        span.set_duration(0.5)
        assert span.duration == 0.5
        with pytest.raises(ObservabilityError):
            span.set_duration(-1)

    def test_history_bounded(self):
        tracer = Tracer(max_traces=3)
        for index in range(10):
            with tracer.span(f"t{index}"):
                pass
        assert len(tracer.traces) == 3
        assert tracer.traces[-1].name == "t9"

    def test_clear_refuses_open_spans(self):
        tracer = Tracer()
        tracer.begin("open")
        with pytest.raises(ObservabilityError):
            tracer.clear()
        tracer.end()
        tracer.clear()
        assert tracer.traces == []


class TestFind:
    def test_find_collects_all_descendants(self):
        tracer = Tracer()
        with tracer.span("root"):
            tracer.record("hop", 0.1)
            with tracer.span("mid"):
                tracer.record("hop", 0.2)
        hops = tracer.last_trace.find("hop")
        assert [span.duration for span in hops] == [0.1, 0.2]


class TestExport:
    def test_to_json_round_trips(self):
        tracer = Tracer()
        with tracer.span("root", k=5):
            tracer.record("hop", 0.1, leaf=0)
        tree = json.loads(json.dumps(tracer.to_json()))
        assert tree["name"] == "root"
        assert tree["attributes"]["k"] == 5
        assert tree["children"][0]["name"] == "hop"
        assert tree["children"][0]["duration_seconds"] == 0.1

    def test_to_json_empty_tracer_is_none(self):
        assert Tracer().to_json() is None

    def test_render_flame_text(self):
        tracer = Tracer()
        root = tracer.begin("root")
        tracer.record("hop", 0.25, leaf=1)
        tracer.end()
        root.set_duration(1.0)
        text = tracer.render()
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "100.0%" in lines[0]
        assert "hop" in lines[1]
        assert "25.0%" in lines[1]
        assert "leaf=1" in lines[1]

    def test_render_empty(self):
        assert Tracer().render() == "(no traces recorded)"


class TestAggregatePhases:
    def test_totals_by_span_name(self):
        tracer = Tracer()
        for _ in range(2):
            root = tracer.begin("match")
            tracer.record("probe", 0.1)
            tracer.record("probe", 0.2)
            tracer.record("select", 0.4)
            tracer.end()
            root.set_duration(1.0)
        totals = aggregate_phases(tracer.traces)
        assert totals["probe"]["count"] == 4
        assert totals["probe"]["seconds"] == pytest.approx(0.6)
        assert totals["select"]["seconds"] == pytest.approx(0.8)
        assert totals["match"]["count"] == 2

    def test_self_time_excludes_children(self):
        # A child's time must not be double-counted in its parent's
        # self-time: match is 1.0s cumulative, but only 0.3s of it was
        # spent outside probe (0.3s) and select (0.4s).
        tracer = Tracer()
        root = tracer.begin("match")
        tracer.record("probe", 0.1)
        tracer.record("probe", 0.2)
        tracer.record("select", 0.4)
        tracer.end()
        root.set_duration(1.0)
        totals = aggregate_phases(tracer.traces)
        assert totals["match"]["seconds"] == pytest.approx(1.0)
        assert totals["match"]["self_seconds"] == pytest.approx(0.3)
        # Leaf spans have no children: self time equals cumulative time.
        assert totals["probe"]["self_seconds"] == pytest.approx(0.3)
        assert totals["select"]["self_seconds"] == pytest.approx(0.4)
        # Summing self time over every name reproduces the trace's wall
        # time exactly once.
        total_self = sum(entry["self_seconds"] for entry in totals.values())
        assert total_self == pytest.approx(1.0)

    def test_self_time_only_subtracts_direct_children(self):
        # Grandchildren subtract from their parent, not the grandparent.
        tracer = Tracer()
        root = tracer.begin("outer")
        middle = tracer.begin("middle")
        tracer.record("inner", 0.2)
        tracer.end()
        middle.set_duration(0.5)
        tracer.end()
        root.set_duration(1.0)
        totals = aggregate_phases(tracer.traces)
        assert totals["outer"]["self_seconds"] == pytest.approx(0.5)
        assert totals["middle"]["self_seconds"] == pytest.approx(0.3)
        assert totals["inner"]["self_seconds"] == pytest.approx(0.2)

    def test_self_time_clamps_when_children_exceed_parent(self):
        # Simulated-clock overrides can make children nominally longer
        # than their parent; self time clamps at zero instead of going
        # negative.
        tracer = Tracer()
        root = tracer.begin("outer")
        tracer.record("inner", 2.0)
        tracer.end()
        root.set_duration(1.0)
        totals = aggregate_phases(tracer.traces)
        assert totals["outer"]["self_seconds"] == 0.0


def span_names(traces):
    """Every span name in the given trace trees."""
    names = set()
    stack = list(traces)
    while stack:
        span = stack.pop()
        names.add(span.name)
        stack.extend(span.children)
    return names


def vocabulary_subscriptions():
    return [
        Subscription(
            f"s{index}",
            [
                Constraint("price", Interval(index, index + 50), 1.0),
                Constraint("state", {"Indiana"}, 0.5),
            ],
        )
        for index in range(30)
    ]


#: A repeated event, so a batch answers some probes from its cache.
VOCABULARY_EVENTS = [
    Event({"price": 42, "state": "Indiana"}),
    Event({"price": 7}),
    Event({"price": 42, "state": "Indiana"}),
]

#: Zero-duration probe-cache outcomes: spans, but no profiler phase.
CACHE_MARKERS = {"probe_cache.hit", "probe_cache.miss"}


def single_node_span_names(heat):
    """Names traced by fx-tm alone and behind InstrumentedMatcher."""
    tracer = Tracer()
    engine = FXTMMatcher(
        prorate=True, tracer=tracer, heat=HeatMonitor() if heat else None
    )
    for subscription in vocabulary_subscriptions():
        engine.add_subscription(subscription)
    wrapped = InstrumentedMatcher(engine, tracer=tracer)
    for matcher in (engine, wrapped):
        matcher.match(VOCABULARY_EVENTS[0], k=5)
        matcher.match_batch(VOCABULARY_EVENTS, k=5)
    return span_names(tracer.traces)


def overlay_span_names():
    """Names traced by the overlay under quarantine, retries and drops."""
    tracer = Tracer()
    system = DistributedTopKSystem(
        lambda: FXTMMatcher(prorate=True),
        node_count=6,
        faults=FaultPlan(crashed=frozenset({2}), hop_drop_rate=0.3, seed=0),
        tracer=tracer,
    )
    system.add_subscriptions(vocabulary_subscriptions())
    # The first walk times leaf 2 out into quarantine; the second skips it.
    for _ in range(2):
        system.match(VOCABULARY_EVENTS[0], k=5)
        system.match_batch(VOCABULARY_EVENTS, k=5)
    return span_names(tracer.traces)


class TestSpanVocabulary:
    @pytest.mark.parametrize("heat", [False, True], ids=["plain", "heat"])
    def test_single_node_spans_are_declared_profiler_phases(self, heat):
        names = single_node_span_names(heat)
        assert names <= SPAN_NAMES, sorted(names - SPAN_NAMES)
        phases = set(PHASE_OF_FRAME.values())
        assert names - CACHE_MARKERS <= phases, sorted(names - CACHE_MARKERS - phases)

    def test_overlay_spans_are_declared(self):
        names = overlay_span_names()
        assert names <= SPAN_NAMES, sorted(names - SPAN_NAMES)

    def test_every_declared_name_is_emitted(self):
        emitted = single_node_span_names(heat=False) | overlay_span_names()
        assert emitted == SPAN_NAMES, sorted(SPAN_NAMES ^ emitted)
