"""The distributed top-k system (paper Figure 2, sections 6.2 and 7.8).

``DistributedTopKSystem`` wires together:

* a set of :class:`~repro.distributed.node.MatcherNode` leaves, each with
  a local matcher over a partition of the subscriptions ("We use a
  simple script on the LOOM controller to distribute subscriptions evenly
  amongst nodes");
* a LOOM-style :class:`~repro.distributed.overlay.AggregationTree` with
  fanout 3 (or the heuristic optimum);
* the controller, which "receives events for the system and forwards each
  event to every local controller", then collects the aggregated top-k.

Timing is a hybrid of measurement and simulation, as documented in
DESIGN.md: local matching and merge computations run for real and are
measured with ``perf_counter``; event dissemination and every
result-forwarding hop follow the :class:`LatencyModel`.  The end-to-end
latency obeys the natural completion-time recurrence — an internal node
finishes when its *slowest* child's results have arrived and been merged,
which is why the paper observes BE*'s higher local variance inflating its
aggregation times.

On top of the paper's healthy-overlay simulation sits the fault-tolerance
subsystem (docs/fault_tolerance.md): deterministic fault injection
(:mod:`repro.distributed.faults`), heartbeat/suspicion failure detection
(:mod:`repro.distributed.health`), replicated placement surviving
``r - 1`` leaf failures (:mod:`repro.distributed.replication`), hop retry
with exponential backoff under a per-match deadline
(:class:`~repro.distributed.network.RetryPolicy`), and leaf recovery from
snapshots or surviving replicas.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Generic, List, Optional, Sequence, Set, Type, TypeVar, Union

from repro.core.events import Event
from repro.core.results import MatchResult
from repro.core.snapshot import restore_into, save_matcher
from repro.core.subscriptions import Subscription
from repro.distributed.faults import FaultInjector, FaultPlan, MatchFaults
from repro.distributed.health import HealthTracker
from repro.distributed.merge import merge_topk
from repro.distributed.network import LatencyModel, RetryPolicy
from repro.distributed.node import MatcherFactory, MatcherNode
from repro.distributed.overlay import AggregationTree, OverlayNode
from repro.distributed.placement import PlacementStrategy
from repro.distributed.replication import ReplicatedPlacement
from repro.errors import OverlayError, RecoveryError, UnknownSubscriptionError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "DistributedBatchOutcome",
    "DistributedMatchOutcome",
    "DistributedTopKSystem",
    "RecoveryReport",
]


#: The per-event result type: one top-k list, or one per batched event.
_Result = TypeVar("_Result")


@dataclass
class _OverlayOutcome(Generic[_Result]):
    """What one walk of the overlay records, for one event or a batch."""

    #: The aggregated system-wide top-k, best first (a batch holds one
    #: such list per event, in request order).
    results: List[_Result]
    #: Measured wall seconds of each leaf's local match (0.0 for leaves
    #: that contributed nothing this match).
    local_seconds: List[float]
    #: Simulated end-to-end seconds: dissemination + slowest leaf path
    #: (including timeouts and backoffs) + aggregation.
    total_seconds: float
    #: Simulated seconds spent inside the aggregation overlay only.
    aggregation_seconds: float = 0.0
    #: Measured wall seconds spent in merge computations.
    merge_compute_seconds: float = 0.0
    #: Leaves whose results did not reach the root this match (crashed,
    #: flaky past retry budget, past deadline, quarantined, or lost to a
    #: dropped aggregation hop).
    failed_leaves: List[int] = field(default_factory=list)
    #: Fraction of registered subscriptions with at least one replica on
    #: a leaf that contributed to this answer.  1.0 means the answer is
    #: exactly what a healthy centralized matcher would return.
    coverage: float = 1.0
    #: Re-attempts made anywhere (dissemination, leaf, aggregation hops).
    retries_attempted: int = 0
    #: Attempts that ended in a simulated timeout anywhere in the overlay.
    hops_timed_out: int = 0
    #: Leaves skipped outright because the health tracker had them
    #: quarantined when the match started.
    quarantined_leaves: List[int] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether any registered subscription was unreachable."""
        return self.coverage < 1.0


@dataclass
class DistributedMatchOutcome(_OverlayOutcome[MatchResult]):
    """Everything the simulation records about one distributed match."""

    @property
    def mean_local_seconds(self) -> float:
        """Average leaf matching time over *contributing* leaves.

        Failed leaves' zeroed entries are excluded — averaging them in
        would bias the paper's "local" series downward whenever failures
        are injected.
        """
        live = self._live_local_seconds()
        return sum(live) / len(live) if live else 0.0

    @property
    def max_local_seconds(self) -> float:
        """Slowest contributing leaf — the one aggregation waits for."""
        live = self._live_local_seconds()
        return max(live) if live else 0.0

    def _live_local_seconds(self) -> List[float]:
        dead = set(self.failed_leaves)
        return [
            seconds
            for leaf, seconds in enumerate(self.local_seconds)
            if leaf not in dead
        ]


@dataclass
class DistributedBatchOutcome(_OverlayOutcome[List[MatchResult]]):
    """Everything recorded about one distributed *batched* match.

    The batch ships whole: one dissemination hop per leaf and one hop
    per aggregation edge carry every event's data, so the per-hop
    retry/timeout/backoff machinery is paid once per batch instead of
    once per event.  Failure granularity is therefore the batch — a leaf
    that times out contributes to no event of the batch.
    """

    @property
    def events(self) -> int:
        """Number of events in the batch."""
        return len(self.results)


#: The outcome type one overlay walk builds.
_Outcome = TypeVar("_Outcome", DistributedMatchOutcome, DistributedBatchOutcome)


@dataclass
class _Walk:
    """The state of one walk of the overlay over a list of events.

    A single :meth:`DistributedTopKSystem.match` walks with one event and
    ``batched`` unset: its leaves run ``match`` rather than
    ``match_batch``, and its spans carry no batch labels.
    """

    events: Sequence[Event]
    k: int
    batched: bool
    view: Optional[MatchFaults]
    #: Only the system-level injector feeds the health tracker.
    record_health: bool
    rng: random.Random
    #: The simulated clock when the walk started.
    now: float
    #: Leaves whose answers reached the overlay; a dropped aggregation
    #: hop removes its subtree's leaves again.
    delivered: Set[int] = field(default_factory=set)
    #: Per leaf: its per-event results and the simulated moment (from
    #: the walk's start) they, or their abandonment, are known.
    partials: List[List[List[MatchResult]]] = field(default_factory=list)
    ready_at: List[float] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    agg_retries: int = 0
    agg_timeouts: int = 0
    merge_seconds: float = 0.0

    def nothing(self) -> List[List[MatchResult]]:
        """An empty result list per event: a lost contribution."""
        return [[] for _ in self.events]

    def label(self, key: str) -> Dict[str, int]:
        """``{key: len(events)}`` for span attributes of a batch only."""
        return {key: len(self.events)} if self.batched else {}


@dataclass
class RecoveryReport:
    """What :meth:`DistributedTopKSystem.recover_leaf` accomplished."""

    leaf_id: int
    #: Subscriptions restored from the snapshot file.
    restored_from_snapshot: int = 0
    #: Subscriptions copied over from surviving replicas.
    copied_from_replicas: int = 0
    #: Sids that were owned by the leaf but could not be recovered from
    #: either source; they are dropped from the cluster's ownership map.
    lost: List[Any] = field(default_factory=list)
    #: Subscriptions placed on the leaf while it was down, kept as is.
    accepted_while_down: int = 0

    @property
    def recovered(self) -> int:
        return (
            self.accepted_while_down
            + self.restored_from_snapshot
            + self.copied_from_replicas
        )


class _ClusterMetrics:
    """The cluster's metric handles, registered once per registry.

    Names and semantics are catalogued in docs/observability.md; the
    ``stage`` label separates the dissemination/leaf path ("leaf") from
    the aggregation overlay ("aggregation").
    """

    __slots__ = (
        "matches",
        "batch_events",
        "degraded",
        "retries",
        "timeouts",
        "failed_leaves",
        "match_seconds",
        "coverage",
        "local_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.matches = registry.counter(
            "repro_distributed_matches_total", "distributed matches served"
        )
        self.batch_events = registry.counter(
            "repro_distributed_batch_events_total",
            "events served through distributed batched matches",
        )
        self.degraded = registry.counter(
            "repro_degraded_matches_total",
            "distributed matches answered with coverage below 1.0",
        )
        self.retries = registry.counter(
            "repro_retries_total", "hop re-attempts by stage", labels=("stage",)
        )
        self.timeouts = registry.counter(
            "repro_hop_timeouts_total",
            "simulated hop timeouts by stage",
            labels=("stage",),
        )
        self.failed_leaves = registry.counter(
            "repro_failed_leaf_matches_total",
            "leaf contributions lost to crashes, flakiness, or deadlines",
        )
        self.match_seconds = registry.histogram(
            "repro_distributed_match_seconds",
            "simulated end-to-end seconds per distributed match",
        )
        self.coverage = registry.histogram(
            "repro_match_coverage",
            "fraction of subscriptions reachable per match",
            buckets=(0.25, 0.5, 0.75, 0.9, 0.99, 1.0),
        )
        self.local_seconds = registry.histogram(
            "repro_leaf_local_seconds",
            "measured wall seconds of contributing leaves' local matches",
        )


class DistributedTopKSystem:
    """FX-TM (or any matcher) distributed over a simulated LOOM overlay.

    ``replication_factor`` places every subscription on that many
    distinct leaves (capped at the node count), so the answer stays
    complete under any ``replication_factor - 1`` concurrent leaf
    failures.  ``faults`` attaches a deterministic
    :class:`~repro.distributed.faults.FaultPlan` (or a pre-built
    :class:`~repro.distributed.faults.FaultInjector`); ``retry`` and
    ``health`` configure the reaction to misbehaving leaves.

    >>> from repro import FXTMMatcher
    >>> system = DistributedTopKSystem(lambda: FXTMMatcher(), node_count=9)
    >>> system.overlay.depth
    3
    """

    def __init__(
        self,
        matcher_factory: MatcherFactory,
        node_count: int,
        fanout: int = 3,
        latency: Optional[LatencyModel] = None,
        placement: Optional[PlacementStrategy] = None,
        replication_factor: int = 1,
        faults: Union[FaultPlan, FaultInjector, None] = None,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthTracker] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Any] = None,
        logger: Optional[Any] = None,
        exemplars: Optional[Any] = None,
    ) -> None:
        if node_count < 1:
            raise OverlayError(f"node_count must be >= 1, got {node_count}")
        self._matcher_factory = matcher_factory
        self.nodes = [MatcherNode(index, matcher_factory()) for index in range(node_count)]
        self.overlay = AggregationTree(node_count, fanout=fanout)
        self.latency = latency or LatencyModel()
        self.replication = ReplicatedPlacement(replication_factor, base=placement)
        self.retry = retry or RetryPolicy()
        self.health = health or HealthTracker(node_count)
        #: Cluster-wide metrics registry; always present so counters can
        #: be scraped even when no registry was supplied.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Optional :class:`repro.obs.tracing.Tracer`; when set, every
        #: match produces a ``distributed.match`` trace tree covering
        #: dispatch, retries, backoffs, local matching, and aggregation.
        self.tracer = tracer
        #: Optional :class:`repro.obs.logging.StructuredLogger` for
        #: runtime events (crashes, recoveries, degraded matches).
        self.logger = logger.child(component="cluster") if logger is not None else None
        #: Optional :class:`repro.obs.exemplars.ExemplarStore`: slow
        #: matches (simulated total) and every degraded match retain
        #: their ``distributed.match`` trace tree (tracer required for
        #: the tree; latencies are observed regardless).
        self.exemplars = exemplars
        self._metrics = _ClusterMetrics(self.registry)
        self.health.bind_observability(registry=self.registry, logger=logger)
        self.fault_injector = (
            FaultInjector(faults, logger=logger)
            if isinstance(faults, FaultPlan)
            else faults
        )
        if self.logger is not None:
            self.logger.info(
                "cluster.configured",
                node_count=node_count,
                fanout=fanout,
                replication_factor=self.replication.factor,
                retry=self.retry.as_dict(),
                latency=self.latency.as_dict(),
            )
        self._owner_of: Dict[Any, List[int]] = {}
        #: Leaves the cluster itself knows are down (``crash_leaf``),
        #: independent of any injected fault plan.
        self._down: Set[int] = set()
        #: Simulated time accumulated across matches; drives failure
        #: detection timeouts and quarantine re-admission.
        self.simulated_clock = 0.0

    @property
    def placement(self) -> PlacementStrategy:
        """The base (primary-replica) placement strategy."""
        return self.replication.base

    @property
    def replication_factor(self) -> int:
        return self.replication.factor

    # ------------------------------------------------------------------
    # Subscription distribution
    # ------------------------------------------------------------------
    def add_subscription(self, subscription: Subscription) -> int:
        """Place one subscription on ``replication_factor`` leaves.

        Returns the primary owner's node id.
        """
        owners = self.replication.place_replicas(subscription, len(self.nodes))
        for node_id in owners:
            self.nodes[node_id].matcher.add_subscription(subscription)
        self._owner_of[subscription.sid] = owners
        return owners[0]

    def add_subscriptions(self, subscriptions: Sequence[Subscription]) -> None:
        """Distribute subscriptions across leaves (round-robin default)."""
        for subscription in subscriptions:
            self.add_subscription(subscription)

    def cancel_subscription(self, sid: Any) -> None:
        """Remove a subscription from every replica.

        Raises :class:`~repro.errors.UnknownSubscriptionError` when absent.
        """
        owners = self._owner_of.pop(sid, None)
        if owners is None:
            raise UnknownSubscriptionError(sid)
        for node_id in owners:
            # A crashed-and-wiped leaf no longer holds the sid; the
            # cancellation must still succeed on the survivors.
            if sid in self.nodes[node_id].matcher:
                self.nodes[node_id].cancel_subscription(sid)
        self.replication.forget(sid, owners[0])

    def owners_of(self, sid: Any) -> List[int]:
        """The leaves currently holding ``sid`` (primary first)."""
        try:
            return list(self._owner_of[sid])
        except KeyError:
            raise UnknownSubscriptionError(sid) from None

    def __len__(self) -> int:
        """Distinct registered subscriptions (replicas counted once)."""
        return len(self._owner_of)

    def replica_count(self) -> int:
        """Total stored copies across all leaves (>= ``len(self)``)."""
        return sum(len(node) for node in self.nodes)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(
        self,
        event: Event,
        k: int,
        faults: Union[FaultPlan, FaultInjector, None] = None,
    ) -> DistributedMatchOutcome:
        """Match one event across the cluster.

        Local matches and merges execute for real (sequentially here, but
        timed individually so the simulation can account them as
        parallel); hops follow the latency model.  The event walks the
        overlay exactly as a batch of one would (see :meth:`match_batch`),
        except that each leaf runs its single-event ``match``.

        ``faults`` overrides the system-level fault injector for this
        call (a :class:`FaultPlan` gets a fresh injector, so the same
        plan always produces the same outcome).  A per-call plan is a
        *what-if* injection: it does not feed the health tracker, so it
        cannot quarantine leaves or otherwise leak state into later
        matches — only the system-level injector (and real crashes via
        :meth:`crash_leaf`) drive failure detection.  Leaves that are
        crashed,
        flaky past the retry budget, slower than the per-match deadline,
        or quarantined by the health tracker contribute nothing; the
        outcome's :attr:`~DistributedMatchOutcome.coverage` reports the
        fraction of subscriptions that remained reachable through some
        replica, and :attr:`~DistributedMatchOutcome.degraded` is set
        exactly when coverage dropped below 1.0.  Timeouts, retries, and
        exponential backoff all accrue to the simulated latency.
        """
        return self._walk_overlay(DistributedMatchOutcome, [event], k, faults)

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        faults: Union[FaultPlan, FaultInjector, None] = None,
    ) -> DistributedBatchOutcome:
        """Match a batch of events across the cluster in one pass.

        The whole batch ships to each leaf in *one* dissemination hop
        (payload: the summed event sizes) and each aggregation edge
        carries every event's partials in *one* hop — so the retry
        policy's timeouts and backoffs, the hop latencies, and the
        tracer's bookkeeping are paid once per batch instead of once per
        event.  Each leaf runs its local ``match_batch`` (probe caching
        included); per-event results are then merged via ``merge_topk``
        exactly as ``len(events)`` single matches would have been.

        ``faults`` behaves as in :meth:`match`: a per-call plan is a
        what-if injection that does not feed the health tracker.
        """
        return self._walk_overlay(DistributedBatchOutcome, events, k, faults)

    def _walk_overlay(
        self,
        kind: Type[_Outcome],
        events: Sequence[Event],
        k: int,
        faults: Union[FaultPlan, FaultInjector, None],
    ) -> _Outcome:
        """The one overlay walk behind :meth:`match` and :meth:`match_batch`.

        Every leaf is tried (or skipped while quarantined), the partials
        are merged up the aggregation tree, and one final hop carries
        the answer to the controller.  ``kind`` picks the outcome type; a
        :class:`DistributedMatchOutcome` walk carries exactly one event.
        """
        batched = kind is DistributedBatchOutcome
        policy = self.retry
        walk = _Walk(
            events=events,
            k=k,
            batched=batched,
            view=self._fault_view(faults),
            record_health=faults is None,
            rng=self.latency.rng(),
            now=self.simulated_clock,
        )
        tracer = self.tracer
        root_span = (
            tracer.begin(
                "distributed.match_batch" if batched else "distributed.match",
                k=k, nodes=len(self.nodes), **walk.label("batch"),
            )
            if tracer is not None
            else None
        )
        try:
            local_seconds: List[float] = []
            quarantined: List[int] = []
            for node in self.nodes:
                leaf = node.node_id
                probing = False
                if self.health.is_quarantined(leaf):
                    if self.health.probe_due(leaf, walk.now):
                        probing = True
                    else:
                        quarantined.append(leaf)
                        walk.partials.append(walk.nothing())
                        local_seconds.append(0.0)
                        walk.ready_at.append(0.0)
                        if tracer is not None:
                            tracer.record(
                                "leaf.quarantined", 0.0, leaf=leaf, simulated=True
                            )
                        continue
                if tracer is not None:
                    with tracer.span("leaf.dispatch", leaf=leaf, probe=probing) as leaf_span:
                        batches, elapsed, ready, success = self._attempt_leaf(
                            node, walk, policy, single_attempt=probing
                        )
                        leaf_span.annotate(
                            outcome="delivered" if success else "failed",
                            simulated=True,
                        )
                        leaf_span.set_duration(ready)
                else:
                    batches, elapsed, ready, success = self._attempt_leaf(
                        node, walk, policy, single_attempt=probing
                    )
                walk.partials.append(batches)
                local_seconds.append(elapsed)
                walk.ready_at.append(ready)
                if success:
                    walk.delivered.add(leaf)

            root_results, root_time = self._aggregate(self.overlay.root, walk, policy)
            # Root -> controller: one final hop with every event's results.
            carried = sum(len(results) for results in root_results)
            final_hop = self.latency.hop(carried, walk.rng)
            total = root_time + final_hop
            if tracer is not None:
                tracer.record("root.hop", final_hop, results=carried, simulated=True)
            slowest_path = max(walk.ready_at) if walk.ready_at else 0.0
            outcome = kind(
                results=root_results if batched else root_results[0],
                local_seconds=local_seconds,
                total_seconds=total,
                aggregation_seconds=total - slowest_path,
                merge_compute_seconds=walk.merge_seconds,
                failed_leaves=sorted(set(range(len(self.nodes))) - walk.delivered),
                coverage=self._coverage(walk.delivered),
                retries_attempted=walk.retries + walk.agg_retries,
                hops_timed_out=walk.timeouts + walk.agg_timeouts,
                quarantined_leaves=quarantined,
            )
        finally:
            if tracer is not None:
                tracer.end()
        if root_span is not None:
            root_span.annotate(
                coverage=outcome.coverage,
                degraded=outcome.degraded,
                retries=outcome.retries_attempted,
                failed_leaves=outcome.failed_leaves,
                simulated=True,
            )
            root_span.set_duration(total)
        if self.exemplars is not None:
            self.exemplars.offer(
                root_span,
                total,
                degraded=outcome.degraded,
                coverage=outcome.coverage,
                **walk.label("batch"),
                simulated=True,
            )
        self._record_metrics(outcome, walk)
        self.simulated_clock += total
        return outcome

    def _record_metrics(self, outcome: _OverlayOutcome[Any], walk: _Walk) -> None:
        metrics = self._metrics
        if walk.batched:
            metrics.batch_events.inc(len(walk.events))
        else:
            metrics.matches.inc()
        if outcome.degraded:
            metrics.degraded.inc()
            if self.logger is not None:
                self.logger.warning(
                    "match.degraded",
                    coverage=round(outcome.coverage, 6),
                    failed_leaves=outcome.failed_leaves,
                    quarantined=outcome.quarantined_leaves,
                )
        if walk.retries:
            metrics.retries.labels(stage="leaf").inc(walk.retries)
        if walk.agg_retries:
            metrics.retries.labels(stage="aggregation").inc(walk.agg_retries)
        if walk.timeouts:
            metrics.timeouts.labels(stage="leaf").inc(walk.timeouts)
        if walk.agg_timeouts:
            metrics.timeouts.labels(stage="aggregation").inc(walk.agg_timeouts)
        if outcome.failed_leaves:
            metrics.failed_leaves.inc(len(outcome.failed_leaves))
        metrics.match_seconds.observe(outcome.total_seconds)
        metrics.coverage.observe(outcome.coverage)
        failed = set(outcome.failed_leaves)
        for leaf, seconds in enumerate(outcome.local_seconds):
            if leaf not in failed and seconds > 0.0:
                metrics.local_seconds.observe(seconds)

    def _fault_view(
        self, faults: Union[FaultPlan, FaultInjector, None]
    ) -> Optional[MatchFaults]:
        if faults is None:
            injector = self.fault_injector
        elif isinstance(faults, FaultPlan):
            injector = FaultInjector(faults)
        else:
            injector = faults
        view = injector.begin_match() if injector is not None else None
        if view is not None:
            for leaf in view.plan.leaves_mentioned():
                if not 0 <= leaf < len(self.nodes):
                    raise OverlayError(
                        f"fault plan mentions leaf {leaf} outside [0, {len(self.nodes)})"
                    )
        return view

    def _leaf_down(self, leaf: int, view: Optional[MatchFaults]) -> bool:
        if leaf in self._down:
            return True
        return view is not None and view.leaf_down(leaf)

    def _attempt_leaf(
        self,
        node: MatcherNode,
        walk: _Walk,
        policy: RetryPolicy,
        single_attempt: bool,
    ) -> "tuple[List[List[MatchResult]], float, float, bool]":
        """Try one leaf with retries; returns (per-event results, elapsed, ready, ok).

        One dissemination hop ships every event of the walk (payload:
        the summed event sizes), so each retry/timeout/backoff is paid
        once per walk.  ``ready`` is the simulated moment (relative to
        the walk's start) the leaf's answer — or its abandonment — is
        known to the overlay; a failed leaf contributes empty results
        for every event.
        """
        leaf = node.node_id
        tracer = self.tracer
        view = walk.view
        payload = sum(event.size for event in walk.events)
        clock = 0.0
        max_attempts = 1 if single_attempt else policy.max_attempts
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                backoff = policy.backoff(attempt - 1)
                clock += backoff
                walk.retries += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.backoff", backoff,
                        leaf=leaf, attempt=attempt, simulated=True,
                    )
            hop = self.latency.hop(payload, walk.rng)
            failure = None
            if view is not None and view.hop_dropped(("dis", leaf), attempt):
                failure = policy.timeout_seconds
            elif self._leaf_down(leaf, view):
                failure = hop + policy.timeout_seconds
            elif view is not None and view.flaky_failure(leaf, attempt):
                failure = hop + policy.timeout_seconds
            if failure is not None:
                clock += failure
                walk.timeouts += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.attempt", failure,
                        leaf=leaf, attempt=attempt, outcome="timeout",
                        simulated=True,
                    )
                if walk.record_health:
                    self.health.record_timeout(leaf, walk.now + clock)
                if clock >= policy.deadline_seconds:
                    break
                continue
            if walk.batched:
                batches, elapsed = node.match_batch_timed(walk.events, walk.k)
            else:
                results, elapsed = node.match_timed(walk.events[0], walk.k)
                batches = [results]
            factor = view.straggle_factor(leaf) if view is not None else 1.0
            ready = clock + hop + elapsed * factor
            # The deadline is modelled time; ``elapsed`` is measured
            # compute, whose absolute scale depends on the machine (and
            # on cold index builds).  Only waiting the overlay injects —
            # retries, hops, and a straggler's excess over its own
            # healthy compute — counts against the deadline, so a
            # slow-but-healthy leaf is never abandoned.
            if ready - elapsed > policy.deadline_seconds:
                # The (straggling) answer arrives too late to be waited
                # for: the overlay gives up at the deadline.
                walk.timeouts += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.attempt", policy.deadline_seconds - clock,
                        leaf=leaf, attempt=attempt, outcome="abandoned",
                        straggle_factor=factor, simulated=True,
                    )
                if walk.record_health:
                    self.health.record_timeout(leaf, walk.now + policy.deadline_seconds)
                return walk.nothing(), 0.0, policy.deadline_seconds, False
            if tracer is not None:
                tracer.record("leaf.hop", hop, leaf=leaf, attempt=attempt, simulated=True)
                tracer.record(
                    "leaf.local_match_batch" if walk.batched else "leaf.local_match",
                    elapsed * factor,
                    leaf=leaf, **walk.label("events"),
                    results=sum(len(results) for results in batches),
                    measured_seconds=elapsed, straggle_factor=factor,
                )
            if walk.record_health:
                self.health.record_success(leaf, walk.now + ready)
            return batches, elapsed, ready, True
        return walk.nothing(), 0.0, min(clock, policy.deadline_seconds), False

    def _coverage(self, delivered: Set[int]) -> float:
        # Every sid has at least one owner, so a walk on which every leaf
        # delivered reaches them all without scanning the ownership map.
        if not self._owner_of or len(delivered) == len(self.nodes):
            return 1.0
        reachable = sum(
            1
            for owners in self._owner_of.values()
            if any(owner in delivered for owner in owners)
        )
        return reachable / len(self._owner_of)

    def _aggregate(
        self, node: OverlayNode, walk: _Walk, policy: RetryPolicy
    ) -> "tuple[List[List[MatchResult]], float]":
        """Returns (per-event results, completion time) for an overlay subtree.

        Each child edge carries every event's partial set in one hop; a
        dropped edge therefore loses the subtree's contribution to every
        event of the walk at once.
        """
        if node.is_leaf:
            assert node.leaf_index is not None
            return walk.partials[node.leaf_index], walk.ready_at[node.leaf_index]
        assert node.children
        tracer = self.tracer
        view = walk.view
        leaves = node.leaf_indices()
        agg_span = (
            tracer.begin(
                "aggregate", leaves=[leaves[0], leaves[-1]], **walk.label("batch")
            )
            if tracer is not None
            else None
        )
        try:
            child_results: List[List[List[MatchResult]]] = []
            arrival = 0.0
            for child in node.children:
                batches, done_at = self._aggregate(child, walk, policy)
                span = child.leaf_indices()
                contributing = walk.delivered.intersection(span)
                if contributing:
                    # Child -> this node: one hop carrying its partial sets,
                    # retried with backoff when the wire drops it.
                    edge = ("agg", span[0], span[-1])
                    for attempt in range(1, policy.max_attempts + 1):
                        if view is not None and view.hop_dropped(edge, attempt):
                            done_at += policy.timeout_seconds
                            walk.agg_timeouts += 1
                            if tracer is not None:
                                tracer.record(
                                    "aggregation.hop", policy.timeout_seconds,
                                    leaves=[span[0], span[-1]], attempt=attempt,
                                    outcome="dropped", simulated=True,
                                )
                            if attempt >= policy.max_attempts:
                                # Retries exhausted: the whole subtree's
                                # contribution is lost for this walk.
                                walk.delivered.difference_update(contributing)
                                batches = walk.nothing()
                                break
                            walk.agg_retries += 1
                            backoff = policy.backoff(attempt)
                            done_at += backoff
                            if tracer is not None:
                                tracer.record(
                                    "aggregation.backoff", backoff,
                                    leaves=[span[0], span[-1]], attempt=attempt,
                                    simulated=True,
                                )
                            continue
                        carried = sum(len(results) for results in batches)
                        hop = self.latency.hop(carried, walk.rng)
                        done_at += hop
                        if tracer is not None:
                            tracer.record(
                                "aggregation.hop", hop,
                                leaves=[span[0], span[-1]], attempt=attempt,
                                outcome="delivered", results=carried,
                                **walk.label("events"), simulated=True,
                            )
                        break
                # A non-contributing child still delays its parent by the
                # time spent discovering it had nothing to send (done_at).
                child_results.append(batches)
                if done_at > arrival:
                    arrival = done_at
            started = time.perf_counter()
            merged = [
                merge_topk([child[index] for child in child_results], walk.k)
                for index in range(len(walk.events))
            ]
            merge_seconds = time.perf_counter() - started
            walk.merge_seconds += merge_seconds
            if tracer is not None:
                tracer.record(
                    "merge", merge_seconds,
                    inputs=len(child_results), **walk.label("events"),
                    results=sum(len(results) for results in merged),
                )
        finally:
            if tracer is not None:
                tracer.end()
        if agg_span is not None:
            agg_span.annotate(completed_at=arrival + merge_seconds, simulated=True)
            agg_span.set_duration(arrival + merge_seconds)
        # Aggregation "has to receive all results to complete" — it starts
        # at the slowest child's arrival.
        return merged, arrival + merge_seconds

    # ------------------------------------------------------------------
    # Failure and recovery administration
    # ------------------------------------------------------------------
    def save_leaf_snapshot(self, leaf_id: int, path: str) -> int:
        """Persist one leaf's partition via :mod:`repro.core.snapshot`."""
        self._check_leaf(leaf_id)
        return save_matcher(self.nodes[leaf_id].matcher, path)

    def crash_leaf(self, leaf_id: int) -> None:
        """Administratively crash a leaf: its state is lost and the
        health tracker quarantines it immediately.

        Until :meth:`recover_leaf` is called, matches proceed without the
        leaf (no timeout cost — the crash is known, not suspected).
        Writes placed on the leaf meanwhile are held in its emptied
        matcher and kept by the recovery.
        """
        self._check_leaf(leaf_id)
        self.nodes[leaf_id].matcher = self._matcher_factory()
        self._down.add(leaf_id)
        self.health.quarantine(leaf_id, self.simulated_clock)
        if self.logger is not None:
            self.logger.error(
                "leaf.crashed", leaf=leaf_id, now=self.simulated_clock
            )

    def recover_leaf(self, leaf_id: int, snapshot_path: Optional[str] = None) -> RecoveryReport:
        """Rebuild a failed leaf's partition and re-admit it.

        The partition is reassembled from three sources, newest first:

        1. writes the cluster placed on the leaf while it was down (after
           :meth:`crash_leaf`) — each is the sid's latest ADD;
        2. ``snapshot_path`` — a :func:`repro.core.snapshot.save_matcher`
           file (typically written by :meth:`save_leaf_snapshot` before
           the crash); entries the cluster cancelled, re-placed or
           re-added while the leaf was down are dropped;
        3. surviving replicas — any sid the cluster's ownership map
           assigns to this leaf that neither source contained is copied
           from another live owner.

        Sids recoverable from none of these are *lost*: they are
        removed from the ownership map (and the report lists them) so
        coverage accounting stays truthful.
        """
        self._check_leaf(leaf_id)
        accepted = self.nodes[leaf_id].matcher.subscriptions if leaf_id in self._down else {}
        fresh = self._matcher_factory()
        snapshot_count = 0
        if snapshot_path is not None:
            snapshot_count = restore_into(fresh, snapshot_path)
        # Drop snapshot entries the cluster no longer assigns here or
        # re-added while the leaf was down.
        for sid in list(fresh.subscriptions):
            owners = self._owner_of.get(sid)
            if owners is None or leaf_id not in owners or sid in accepted:
                fresh.cancel_subscription(sid)
                snapshot_count -= 1
        for subscription in accepted.values():
            fresh.add_subscription(subscription)
        copied = 0
        lost: List[Any] = []
        for sid, owners in list(self._owner_of.items()):
            if leaf_id not in owners or sid in fresh:
                continue
            source = self._surviving_source(sid, owners, exclude=leaf_id)
            if source is None:
                lost.append(sid)
                owners.remove(leaf_id)
                if not owners:
                    del self._owner_of[sid]
                continue
            fresh.add_subscription(
                self.nodes[source].matcher.get_subscription(sid)
            )
            copied += 1
        self.nodes[leaf_id].matcher = fresh
        self._down.discard(leaf_id)
        self.health.readmit(leaf_id, self.simulated_clock)
        if self.logger is not None:
            self.logger.info(
                "leaf.recovered",
                leaf=leaf_id,
                now=self.simulated_clock,
                accepted_while_down=len(accepted),
                restored_from_snapshot=snapshot_count,
                copied_from_replicas=copied,
                lost=len(lost),
            )
        return RecoveryReport(
            leaf_id=leaf_id,
            restored_from_snapshot=snapshot_count,
            copied_from_replicas=copied,
            lost=lost,
            accepted_while_down=len(accepted),
        )

    def reassign_orphans(self, leaf_id: int) -> "tuple[int, List[Any]]":
        """Re-place a dead leaf's subscriptions onto survivors.

        The alternative to :meth:`recover_leaf` when the leaf is gone for
        good: every sid it owned loses that replica, and — where another
        replica survives — a new copy is placed on the least-loaded live
        leaf not already holding it, restoring the replication degree.
        Returns ``(moved, lost)`` where ``lost`` lists sids with no
        surviving replica anywhere (unrecoverable without a snapshot).

        Raises :class:`~repro.errors.RecoveryError` when there is no
        other live leaf to move subscriptions to.
        """
        self._check_leaf(leaf_id)
        survivors = [
            node.node_id
            for node in self.nodes
            if node.node_id != leaf_id
            and node.node_id not in self._down
            and not self.health.is_quarantined(node.node_id)
        ]
        if not survivors:
            raise RecoveryError(
                f"cannot reassign leaf {leaf_id}'s subscriptions: no live leaves"
            )
        moved = 0
        lost: List[Any] = []
        for sid, owners in list(self._owner_of.items()):
            if leaf_id not in owners:
                continue
            owners.remove(leaf_id)
            source = self._surviving_source(sid, owners, exclude=leaf_id)
            if source is None:
                lost.append(sid)
                del self._owner_of[sid]
                continue
            candidates = [leaf for leaf in survivors if leaf not in owners]
            if candidates:
                target = min(candidates, key=lambda leaf: len(self.nodes[leaf]))
                self.nodes[target].matcher.add_subscription(
                    self.nodes[source].matcher.get_subscription(sid)
                )
                owners.append(target)
                moved += 1
        # The dead leaf's local state is discarded along with its role.
        self.nodes[leaf_id].matcher = self._matcher_factory()
        self._down.add(leaf_id)
        self.health.quarantine(leaf_id, self.simulated_clock)
        if self.logger is not None:
            self.logger.info(
                "leaf.reassigned",
                leaf=leaf_id,
                now=self.simulated_clock,
                moved=moved,
                lost=len(lost),
            )
        return moved, lost

    def _surviving_source(
        self, sid: Any, owners: Sequence[int], exclude: int
    ) -> Optional[int]:
        for owner in owners:
            if owner == exclude or owner in self._down:
                continue
            if sid in self.nodes[owner].matcher:
                return owner
        return None

    def _check_leaf(self, leaf_id: int) -> None:
        if not 0 <= leaf_id < len(self.nodes):
            raise OverlayError(
                f"leaf {leaf_id} outside [0, {len(self.nodes)})"
            )
