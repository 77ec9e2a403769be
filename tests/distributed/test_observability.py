"""End-to-end observability of the distributed matcher under faults.

The acceptance scenario: a distributed match under an injected leaf
crash (seeded :class:`FaultPlan`) must produce

* a trace tree showing the failed leaf's timed-out attempts, the
  retries/backoffs between them, and the merge;
* ``repro_retries_total`` and ``repro_quarantine_transitions_total``
  counters in the cluster's registry;
* a structured log line for the SUSPECT -> DEAD transition;

and the registry's Prometheus exposition must round-trip through
:func:`repro.obs.metrics.parse_prom_text`.
"""

import io
import json
from pathlib import Path

import pytest

from repro.bench.harness import make_matcher
from repro.core.attributes import Interval
from repro.core.events import Event
from repro.core.subscriptions import Constraint, Subscription
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.controller import DistributedController
from repro.distributed.faults import FaultPlan
from repro.distributed.health import HealthTracker, LeafState
from repro.distributed.network import RetryPolicy
from repro.obs import (
    LOG_EVENTS,
    MetricsRegistry,
    StructuredLogger,
    Tracer,
    parse_prom_text,
)

NODE_COUNT = 6
CRASHED_LEAF = 2


def subscriptions(count=30):
    return [
        Subscription(f"s{index}", [Constraint("price", Interval(0, 100), 1.0)])
        for index in range(count)
    ]


def build_system(replication_factor=2, plan=None, stream=None):
    registry = MetricsRegistry()
    tracer = Tracer()
    logger = StructuredLogger(stream=stream)
    system = DistributedTopKSystem(
        lambda: make_matcher("fx-tm", prorate=True),
        node_count=NODE_COUNT,
        replication_factor=replication_factor,
        faults=plan
        if plan is not None
        else FaultPlan(crashed=frozenset({CRASHED_LEAF}), seed=11),
        registry=registry,
        tracer=tracer,
        logger=logger,
    )
    system.add_subscriptions(subscriptions())
    return system, registry, tracer, logger


class TestCrashedLeafScenario:
    def test_trace_tree_shows_failed_hop_retries_and_merge(self):
        system, registry, tracer, logger = build_system()
        outcome = system.match(Event({"price": 42}), k=5)
        assert CRASHED_LEAF in outcome.failed_leaves

        trace = tracer.last_trace
        assert trace.name == "distributed.match"
        assert trace.attributes["failed_leaves"] == [CRASHED_LEAF]

        dispatches = {
            span.attributes["leaf"]: span for span in trace.find("leaf.dispatch")
        }
        failed = dispatches[CRASHED_LEAF]
        assert failed.attributes["outcome"] == "failed"
        # Every attempt against the crashed leaf timed out...
        attempts = failed.find("leaf.attempt")
        assert len(attempts) == system.retry.max_attempts
        assert all(a.attributes["outcome"] == "timeout" for a in attempts)
        # ...with a backoff wait before each retry.
        assert len(failed.find("leaf.backoff")) == system.retry.max_attempts - 1
        # Healthy leaves delivered their hop + local match.
        healthy = dispatches[0]
        assert healthy.attributes["outcome"] == "delivered"
        assert healthy.find("leaf.hop")
        assert healthy.find("leaf.local_match")
        # Aggregation happened: merge spans inside aggregate spans.
        assert trace.find("aggregate")
        assert trace.find("merge")
        assert trace.find("root.hop")

    def test_counters_count_retries_and_quarantine_transitions(self):
        system, registry, tracer, logger = build_system()
        system.match(Event({"price": 42}), k=5)

        retries = registry.get("repro_retries_total")
        assert retries.labels(stage="leaf").value == system.retry.max_attempts - 1
        timeouts = registry.get("repro_hop_timeouts_total")
        assert timeouts.labels(stage="leaf").value == system.retry.max_attempts

        # Three consecutive timeouts crossed the suspicion threshold in
        # this very match: ALIVE -> SUSPECT -> DEAD.
        transitions = registry.get("repro_quarantine_transitions_total")
        assert transitions.labels(transition="suspect").value == 1.0
        assert transitions.labels(transition="quarantine").value == 1.0
        assert system.health.state_of(CRASHED_LEAF) is LeafState.DEAD
        assert registry.get("repro_quarantined_leaves").value == 1.0
        assert registry.get("repro_distributed_matches_total").value == 1.0

    def test_structured_log_records_suspect_then_dead(self):
        stream = io.StringIO()
        system, registry, tracer, logger = build_system(stream=stream)
        system.match(Event({"price": 42}), k=5)

        (suspect,) = logger.records_for(event="leaf.suspect")
        assert suspect["leaf"] == CRASHED_LEAF
        assert suspect["level"] == "warning"
        (dead,) = logger.records_for(event="leaf.dead")
        assert dead["leaf"] == CRASHED_LEAF
        assert dead["level"] == "error"
        assert dead["previous"] == LeafState.SUSPECT.value
        assert dead["consecutive_timeouts"] == system.health.suspicion_threshold
        # Every emitted line is valid JSON.
        for line in stream.getvalue().splitlines():
            json.loads(line)

    def test_prom_exposition_round_trips(self):
        system, registry, tracer, logger = build_system()
        system.match(Event({"price": 42}), k=5)
        parsed = parse_prom_text(registry.to_prom_text())
        assert parsed["repro_retries_total"]["type"] == "counter"
        samples = {
            tuple(sorted(labels.items())): value
            for _, labels, value in parsed["repro_retries_total"]["samples"]
        }
        assert samples[(("stage", "leaf"),)] == system.retry.max_attempts - 1
        transitions = {
            labels["transition"]: value
            for _, labels, value in parsed["repro_quarantine_transitions_total"]["samples"]
        }
        assert transitions == {"suspect": 1.0, "quarantine": 1.0}
        histogram = parsed["repro_distributed_match_seconds"]
        counts = [v for name, _, v in histogram["samples"] if name.endswith("_count")]
        assert counts == [1.0]

    def test_second_match_skips_quarantined_leaf(self):
        system, registry, tracer, logger = build_system()
        system.match(Event({"price": 42}), k=5)
        outcome = system.match(Event({"price": 42}), k=5)
        assert outcome.quarantined_leaves == [CRASHED_LEAF]
        trace = tracer.last_trace
        skipped = trace.find("leaf.quarantined")
        assert [s.attributes["leaf"] for s in skipped] == [CRASHED_LEAF]
        # No attempts were wasted on the quarantined leaf.
        leaves_attempted = {
            span.attributes["leaf"] for span in trace.find("leaf.dispatch")
        }
        assert CRASHED_LEAF not in leaves_attempted

    def test_replication_keeps_answer_complete_and_undegraded(self):
        system, registry, tracer, logger = build_system(replication_factor=2)
        outcome = system.match(Event({"price": 42}), k=5)
        assert outcome.coverage == 1.0
        assert not outcome.degraded
        assert registry.get("repro_degraded_matches_total").value == 0.0
        assert logger.records_for(event="match.degraded") == []


class TestDegradedMatchScenario:
    def test_unreplicated_crash_logs_and_counts_degradation(self):
        system, registry, tracer, logger = build_system(replication_factor=1)
        outcome = system.match(Event({"price": 42}), k=5)
        assert outcome.degraded
        assert registry.get("repro_degraded_matches_total").value == 1.0
        (record,) = logger.records_for(event="match.degraded")
        assert record["level"] == "warning"
        assert record["failed_leaves"] == [CRASHED_LEAF]
        assert 0.0 < record["coverage"] < 1.0


class TestAdminEventLogging:
    def test_crash_and_recover_emit_events(self):
        system, registry, tracer, logger = build_system(plan=FaultPlan())
        system.crash_leaf(3)
        (crashed,) = logger.records_for(event="leaf.crashed")
        assert crashed["leaf"] == 3
        report = system.recover_leaf(3)
        (recovered,) = logger.records_for(event="leaf.recovered")
        assert recovered["leaf"] == 3
        assert recovered["copied_from_replicas"] == report.copied_from_replicas
        assert recovered["lost"] == len(report.lost)
        # Replica fallback actually happened (replication_factor=2).
        assert report.copied_from_replicas > 0
        (readmitted,) = logger.records_for(event="leaf.readmitted")
        assert readmitted["leaf"] == 3

    def test_reassign_orphans_logs_moves(self):
        system, registry, tracer, logger = build_system(plan=FaultPlan())
        moved, lost = system.reassign_orphans(4)
        (record,) = logger.records_for(event="leaf.reassigned")
        assert record["leaf"] == 4
        assert record["moved"] == moved
        assert record["lost"] == len(lost)

    def test_cluster_configuration_logged_at_construction(self):
        system, registry, tracer, logger = build_system(plan=FaultPlan())
        (record,) = logger.records_for(event="cluster.configured")
        assert record["node_count"] == NODE_COUNT
        assert record["replication_factor"] == 2
        assert record["retry"]["max_attempts"] == system.retry.max_attempts
        assert record["latency"]["base_seconds"] == system.latency.base_seconds


class TestControllerIntrospection:
    def test_metrics_and_trace_requests(self):
        system, registry, tracer, logger = build_system()
        controller = DistributedController(system)
        assert controller.submit("MATCH 5 price: 42").ok

        metrics = controller.submit("METRICS")
        assert metrics.ok
        document = json.loads(metrics.payload)
        assert document["repro_distributed_matches_total"]["values"][0]["value"] == 1.0

        prom = controller.submit("METRICS prom")
        assert prom.ok
        assert "repro_retries_total" in parse_prom_text(prom.payload)

        text_trace = controller.submit("TRACE text")
        assert text_trace.ok
        assert "distributed.match" in text_trace.payload

        json_trace = controller.submit("TRACE json")
        assert json_trace.ok
        assert json.loads(json_trace.payload)["name"] == "distributed.match"

    def test_trace_without_tracer_fails_cleanly(self):
        system = DistributedTopKSystem(
            lambda: make_matcher("fx-tm", prorate=True), node_count=3
        )
        controller = DistributedController(system)
        response = controller.submit("TRACE")
        assert not response.ok
        assert "no tracer" in response.error

    def test_bad_format_rejected(self):
        system, registry, tracer, logger = build_system()
        controller = DistributedController(system)
        response = controller.submit("METRICS xml")
        assert not response.ok


class TestDistributedExemplars:
    def build(self, replication_factor=1):
        from repro.obs import ExemplarStore

        registry = MetricsRegistry()
        tracer = Tracer()
        exemplars = ExemplarStore(quantile=0.99, min_samples=1000)
        system = DistributedTopKSystem(
            lambda: make_matcher("fx-tm", prorate=True),
            node_count=NODE_COUNT,
            replication_factor=replication_factor,
            faults=FaultPlan(crashed=frozenset({CRASHED_LEAF}), seed=11),
            registry=registry,
            tracer=tracer,
            exemplars=exemplars,
        )
        system.add_subscriptions(subscriptions())
        return system, exemplars

    def test_every_degraded_match_is_captured(self):
        system, exemplars = self.build(replication_factor=1)
        outcome = system.match(Event({"price": 42}), k=5)
        assert outcome.degraded
        (exemplar,) = exemplars.exemplars(kind="degraded")
        assert exemplar.trace["name"] == "distributed.match"
        assert exemplar.attributes["coverage"] == outcome.coverage
        assert exemplar.attributes["simulated"] is True
        # The frozen trace still shows the failed leaf's retries.
        assert exemplar.trace["attributes"]["failed_leaves"] == [CRASHED_LEAF]

    def test_replicated_cluster_observes_without_capturing(self):
        system, exemplars = self.build(replication_factor=2)
        outcome = system.match(Event({"price": 42}), k=5)
        assert not outcome.degraded
        # Observed for the latency distribution, but the min_samples
        # gate is far away and nothing was degraded: nothing retained.
        assert exemplars.observed == 1
        assert len(exemplars) == 0

    def test_batch_degradation_captured_once_per_batch(self):
        system, exemplars = self.build(replication_factor=1)
        outcome = system.match_batch([Event({"price": v}) for v in (1, 2, 3)], k=5)
        assert outcome.degraded
        (exemplar,) = exemplars.exemplars(kind="degraded")
        assert exemplar.attributes["batch"] == 3


class TestControllerObservabilityServer:
    def build_instrumented_system(self):
        from repro.core.stats import InstrumentedMatcher

        registry = MetricsRegistry()
        system = DistributedTopKSystem(
            lambda: InstrumentedMatcher(make_matcher("fx-tm", prorate=True)),
            node_count=3,
            replication_factor=1,
            registry=registry,
        )
        system.add_subscriptions(subscriptions())
        return system

    def test_root_and_leaf_registries_scrapeable(self):
        system = self.build_instrumented_system()
        controller = DistributedController(system)
        assert controller.submit("MATCH 5 price: 42").ok
        server = controller.observability_server()
        status, _, body = server.handle("/metrics")
        assert status == 200
        assert parse_prom_text(body)["repro_distributed_matches_total"][
            "samples"
        ][0][2] == 1.0
        # Every instrumented leaf got its own named registry route.
        assert sorted(server.extra_registries) == ["leaf-0", "leaf-1", "leaf-2"]
        leaf_totals = 0.0
        for name in server.extra_registries:
            status, _, body = server.handle(f"/metrics/{name}")
            assert status == 200
            parsed = parse_prom_text(body)
            if "repro_matches_total" in parsed:
                leaf_totals += sum(
                    value
                    for sample_name, _, value in parsed["repro_matches_total"]["samples"]
                    if sample_name == "repro_matches_total"
                )
        # The event fanned out to every live leaf.
        assert leaf_totals == 3.0

    def test_uninstrumented_leaves_yield_no_extra_registries(self):
        system, registry, tracer, logger = build_system()
        server = DistributedController(system).observability_server()
        assert server.extra_registries == {}
        # The system carries no exemplar store either: the route 404s.
        status, _, _ = server.handle("/exemplars")
        assert status == 404


class TestFaultPlanReplayLogging:
    def test_match_begin_debug_event(self):
        system, registry, tracer, logger = build_system()
        system.match(Event({"price": 42}), k=5)
        (record,) = logger.records_for(event="faults.match_begin")
        assert record["match_index"] == 0
        assert record["seed"] == 11
        assert record["crashed"] == [CRASHED_LEAF]


class TestDeterminism:
    def test_same_seed_same_counters_and_trace_shape(self):
        def run():
            system, registry, tracer, logger = build_system()
            system.match(Event({"price": 42}), k=5)
            trace = tracer.last_trace
            return (
                registry.get("repro_retries_total").labels(stage="leaf").value,
                registry.get("repro_hop_timeouts_total").labels(stage="leaf").value,
                [s.name for s in trace.find("leaf.attempt")],
                [s.attributes["outcome"] for s in trace.find("leaf.dispatch")],
            )

        assert run() == run()


def drive_every_log_emit_site():
    """A logger that saw every overlay event site fire at least once."""
    logger = StructuredLogger(clock=lambda: 0.0)
    system = DistributedTopKSystem(
        lambda: make_matcher("fx-tm", prorate=True),
        node_count=NODE_COUNT,
        # Leaf 2 is down for matches 0-1, leaf 3 for match 0 only.
        faults=FaultPlan(
            crashed=frozenset({2}),
            crash_at_match=((3, 0),),
            recover_at_match=((2, 2), (3, 1)),
        ),
        retry=RetryPolicy(max_attempts=1),
        health=HealthTracker(NODE_COUNT, suspicion_threshold=2, readmission_seconds=0.0),
        logger=logger,
    )
    system.add_subscriptions(subscriptions())
    for _ in range(3):
        system.match(Event({"price": 42}), k=5)
    system.crash_leaf(4)
    system.recover_leaf(4)
    system.reassign_orphans(5)
    responses = DistributedController(system).run(["MATCH nonsense(((", "CANCEL ghost"])
    assert [response.ok for response in responses] == [False, False]
    return logger


def documented_log_events():
    """The event column of docs/observability.md's log-event table."""
    text = (Path(__file__).parents[2] / "docs" / "observability.md").read_text()
    section = text.split("## 3. Structured log events", 1)[1].split("\n## ", 1)[0]
    return {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}


class TestLogVocabulary:
    def test_fault_plan_walks_every_health_transition(self):
        logger = drive_every_log_emit_site()
        health = [
            (record["event"], record["leaf"])
            for record in logger.records
            if record.get("component") == "health"
        ]
        # Match 0: leaves 2 and 3 time out once.  Match 1: leaf 2 times
        # out again and leaf 3 answers.  Match 2: leaf 2's probe answers.
        assert health[:5] == [
            ("leaf.suspect", 2),
            ("leaf.suspect", 3),
            ("leaf.dead", 2),
            ("leaf.alive", 3),
            ("leaf.readmitted", 2),
        ]

    def test_emitted_events_equal_declaration(self):
        emitted = {record["event"] for record in drive_every_log_emit_site().records}
        assert emitted == LOG_EVENTS, sorted(emitted ^ LOG_EVENTS)

    def test_docs_table_equals_declaration(self):
        documented = documented_log_events()
        assert documented == LOG_EVENTS, sorted(documented ^ LOG_EVENTS)


def hop_counters_under_drops(retry, matches=10):
    """Per-stage (retries, timeouts) and the worst coverage of ten
    matches on 9 leaves while a seeded plan drops 30% of all hops."""
    system = DistributedTopKSystem(
        lambda: make_matcher("fx-tm", prorate=True),
        node_count=9,
        faults=FaultPlan(hop_drop_rate=0.3, seed=0),
        retry=retry,
    )
    system.add_subscriptions(subscriptions(36))
    coverage = min(
        system.match(Event({"price": 42}), k=5).coverage for _ in range(matches)
    )
    retries = system.registry.get("repro_retries_total")
    timeouts = system.registry.get("repro_hop_timeouts_total")
    counts = {
        stage: (retries.labels(stage=stage).value, timeouts.labels(stage=stage).value)
        for stage in ("leaf", "aggregation")
    }
    return counts, coverage


class TestRetryPolicyReachesEveryHop:
    """The configured RetryPolicy, not a default, governs both stages."""

    def test_single_attempt_never_retries(self):
        counts, coverage = hop_counters_under_drops(RetryPolicy(max_attempts=1))
        for stage, (retries, timeouts) in counts.items():
            assert timeouts > 0 and retries == 0, stage
        assert coverage < 1.0

    def test_enough_attempts_deliver_every_hop(self):
        counts, coverage = hop_counters_under_drops(RetryPolicy(max_attempts=6))
        # Every dropped hop was retried until it got through.
        for stage, (retries, timeouts) in counts.items():
            assert retries == timeouts > 0, stage
        assert coverage == 1.0
        # The default three attempts do lose hops under this plan, so the
        # equality above holds only if the configured policy was used.
        counts, coverage = hop_counters_under_drops(RetryPolicy())
        for stage, (retries, timeouts) in counts.items():
            assert retries < timeouts, stage
        assert coverage < 1.0

    def test_leaf_deadline_stops_leaf_retries(self):
        # One 2 ms timeout spends the 1 ms leaf deadline, so no leaf is
        # retried; aggregation hops have no deadline and keep retrying.
        counts, _ = hop_counters_under_drops(
            RetryPolicy(max_attempts=6, deadline_seconds=1e-3)
        )
        retries, timeouts = counts["leaf"]
        assert timeouts > 0 and retries == 0
        retries, timeouts = counts["aggregation"]
        assert retries == timeouts > 0


@pytest.mark.parametrize("fmt", ["json", "prom"])
def test_local_controller_metrics_kind(fmt):
    """The single-node controller serves the same introspection surface."""
    from repro.core.controller import LocalController
    from repro.core.stats import InstrumentedMatcher

    controller = LocalController(InstrumentedMatcher(make_matcher("fx-tm")))
    controller.submit("ADD s price in [0, 100]")
    controller.submit("MATCH 1 price: 42")
    response = controller.submit(f"METRICS {fmt}")
    assert response.ok
    if fmt == "json":
        assert json.loads(response.payload)["repro_matches_total"]["values"][0]["value"] == 1.0
    else:
        assert (
            'repro_matches_total{algorithm="fx-tm",backend="python"} 1'
            in response.payload
        )
