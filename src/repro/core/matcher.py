"""FX-TM: Fast eXpressive Top-k Matching (paper section 4).

The algorithm partitions subscriptions *by attribute* into a two-level
index (Figure 1):

* a **master index** — a hash map from attribute name to a per-attribute
  structure;
* per attribute, either an **interval tree** (ranged attributes) holding
  ``(interval, weight, sid)`` entries, or a **hash map of value to tree
  set** (discrete attributes) holding ``sid -> weight`` entries.

Adding/cancelling a subscription splits it into elementary constraints and
inserts/deletes each from its attribute structure — ``O(M log N)``
(Theorems 1–2).  Matching an event stabs each relevant structure, folds the
(optionally prorated, optionally event-overridden) weights into a score
map, then streams the budget-adjusted scores through a bounded tree set of
size k — ``O(M log N + S log k)`` time and ``O(MN + k)`` space
(Theorems 3–4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeKind, Interval
from repro.core.events import Event
from repro.core.interfaces import TopKMatcher
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult, sort_results
from repro.core.scoring import SUM, infer_kind
from repro.core.subscriptions import Constraint, Subscription
from repro.errors import SchemaError
from repro.structures.interval_tree import IntervalTree
from repro.structures.treeset import BoundedTopK, IdTreeSet

__all__ = ["FXTMMatcher"]


class _RangedAttributeIndex:
    """Interval-tree index over one ranged attribute's constraints."""

    __slots__ = ("tree",)

    def __init__(self) -> None:
        self.tree = IntervalTree()

    def insert(self, constraint: Constraint, sid: Any) -> None:
        interval = constraint.interval()
        self.tree.insert(interval.low, interval.high, sid, constraint.weight)

    def delete(self, constraint: Constraint, sid: Any) -> None:
        interval = constraint.interval()
        self.tree.delete(interval.low, interval.high, sid)

    def __len__(self) -> int:
        return len(self.tree)


class _DiscreteAttributeIndex:
    """Hash map of value -> tree set index over one discrete attribute.

    "Attributes with discrete individual values use a hash map with the
    values as the keys and a tree set of matching subscriptions as the
    values" (paper section 4.2).  The tree set maps sid -> weight.
    """

    __slots__ = ("buckets", "_size")

    def __init__(self) -> None:
        self.buckets: Dict[Any, IdTreeSet] = {}
        self._size = 0

    def insert(self, constraint: Constraint, sid: Any) -> None:
        # Set constraints index the sid under every member; an event's
        # single value hits exactly one bucket, so the weight still
        # contributes once.
        values = constraint.value if constraint.is_set else (constraint.value,)
        for value in values:
            bucket = self.buckets.get(value)
            if bucket is None:
                bucket = IdTreeSet()
                self.buckets[value] = bucket
            bucket.add(sid, payload=constraint.weight)
        self._size += 1

    def delete(self, constraint: Constraint, sid: Any) -> None:
        values = constraint.value if constraint.is_set else (constraint.value,)
        for value in values:
            bucket = self.buckets[value]
            bucket.remove(sid)
            if not bucket:
                del self.buckets[value]
        self._size -= 1

    def __len__(self) -> int:
        return self._size


class FXTMMatcher(TopKMatcher):
    """The paper's FX-TM algorithm (Algorithms 1 and 2).

    >>> from repro.core.attributes import Interval
    >>> from repro.core.subscriptions import Constraint, Subscription
    >>> from repro.core.events import Event
    >>> matcher = FXTMMatcher(prorate=True)
    >>> matcher.add_subscription(Subscription("spring-break", [
    ...     Constraint("age", Interval(18, 24), weight=2.0),
    ...     Constraint("state", "Indiana", weight=1.0)]))
    >>> matcher.match(Event({"age": Interval(20, 30), "state": "Indiana"}), k=1)
    [MatchResult(sid='spring-break', score=...)]
    """

    name = "fx-tm"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        #: Attribute name -> per-attribute structure (Algorithm 1 line 1).
        self._master_index: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Algorithm 1: adding and removing subscriptions
    # ------------------------------------------------------------------
    def _index_subscription(self, subscription: Subscription) -> None:
        sid = subscription.sid
        # Resolve every kind before touching any structure, so a schema
        # conflict on the third constraint cannot leave the first two
        # half-indexed.
        kinds = [self._resolve_kind(constraint) for constraint in subscription.constraints]
        for constraint, kind in zip(subscription.constraints, kinds):
            structure = self._master_index.get(constraint.attribute)
            if structure is None:
                if kind.is_ranged:
                    structure = _RangedAttributeIndex()
                else:
                    structure = _DiscreteAttributeIndex()
                self._master_index[constraint.attribute] = structure
            structure.insert(constraint, sid)

    def _deindex_subscription(self, subscription: Subscription) -> None:
        sid = subscription.sid
        for constraint in subscription.constraints:
            structure = self._master_index[constraint.attribute]
            structure.delete(constraint, sid)
            if not len(structure):
                # Empty structures may be removed (paper section 4.3).
                del self._master_index[constraint.attribute]

    def _resolve_kind(self, constraint: Constraint) -> AttributeKind:
        kind = self.schema.kind_of(constraint.attribute)
        if kind is None:
            kind = self.schema.resolve(constraint.attribute, infer_kind(constraint))
        elif kind.is_ranged and not isinstance(constraint.value, (int, float, Interval)):
            raise SchemaError(
                f"constraint on {constraint.attribute!r} carries discrete value "
                f"{constraint.value!r} but the attribute is declared {kind.value}"
            )
        return kind

    # ------------------------------------------------------------------
    # Bulk loading (an optimisation beyond Algorithm 1)
    # ------------------------------------------------------------------
    def bulk_load(self, subscriptions: List[Subscription]) -> None:
        """Load many subscriptions at once into an *empty* matcher.

        Semantically identical to adding each subscription in turn, but
        the interval trees are built balanced from sorted entry lists
        (one sort per attribute) instead of via N individual rebalances —
        a large constant-factor win when priming a matcher with a big
        snapshot.  Raises :class:`~repro.errors.MatcherStateError` when
        the matcher is not empty (incremental adds would otherwise
        interleave with the bulk build) and the usual duplicate/schema
        errors, leaving the matcher empty on failure.
        """
        from repro.errors import MatcherStateError

        if len(self._subscriptions):
            raise MatcherStateError("bulk_load requires an empty matcher")
        ranged_entries: Dict[str, List[Any]] = {}
        # _resolve_kind pins kinds into the schema as it goes; a failed
        # load must not leave those behind on the rolled-back matcher.
        schema_snapshot = self.schema.snapshot_kinds()
        try:
            for subscription in subscriptions:
                sid = subscription.sid
                if sid in self._subscriptions:
                    from repro.errors import DuplicateSubscriptionError

                    raise DuplicateSubscriptionError(sid)
                self._subscriptions[sid] = subscription
                if self.budget_tracker is not None:
                    self.budget_tracker.register(sid, subscription.budget)
                for constraint in subscription.constraints:
                    kind = self._resolve_kind(constraint)
                    if kind.is_ranged:
                        interval = constraint.interval()
                        ranged_entries.setdefault(constraint.attribute, []).append(
                            (interval.low, interval.high, sid, constraint.weight)
                        )
                    else:
                        structure = self._master_index.get(constraint.attribute)
                        if structure is None:
                            structure = _DiscreteAttributeIndex()
                            self._master_index[constraint.attribute] = structure
                        structure.insert(constraint, sid)
            for attribute, entries in ranged_entries.items():
                index = _RangedAttributeIndex()
                index.tree = IntervalTree.from_entries(entries)
                self._master_index[attribute] = index
        except Exception:
            self._master_index.clear()
            if self.budget_tracker is not None:
                for sid in list(self._subscriptions):
                    self.budget_tracker.unregister(sid)
            self._subscriptions.clear()
            self.schema.restore_kinds(schema_snapshot)
            raise

    def ensure_built(self) -> None:
        """Warm every ranged attribute's flattened stab view.

        The benchmark harness calls this after loading subscriptions so
        the one-time flat-array build is charged to load time, not to
        the first match touching each attribute — the same static-build
        methodology the BE* baseline uses.  Once built, each ADD/CANCEL
        patches the views of the trees it writes, so later matches find
        them current; only a burst of writes with no match in between
        leaves a view for the next match to rebuild (see
        :mod:`repro.structures.interval_tree`).
        """
        # Duck-typed: ablation variants swap in tree stand-ins that have
        # no flattened view to warm.
        for structure in self._master_index.values():
            ensure = getattr(getattr(structure, "tree", None), "ensure_flat", None)
            if callable(ensure):
                ensure()

    # ------------------------------------------------------------------
    # Algorithm 2: weighted partial matching
    # ------------------------------------------------------------------
    def _match_topk(self, event: Event, k: int) -> List[MatchResult]:
        tracer = self.tracer
        if tracer is None:
            return self._select_topk(self._build_scoremap(event), k)
        # Traced path: identical computation, decomposed into the
        # pipeline's span hierarchy (docs/observability.md): master-index
        # lookup -> per-attribute probe -> candidate scoring -> top-k
        # selection.
        with tracer.span("fxtm.match", algorithm=self.name, k=k) as root:
            scoremap = self._build_scoremap(event, tracer=tracer)
            with tracer.span("topk.select", candidates=len(scoremap)) as select:
                results = self._select_topk(scoremap, k)
                select.annotate(results=len(results))
            root.annotate(results=len(results))
        return results

    # ------------------------------------------------------------------
    # Batched matching: one pass, shared probes
    # ------------------------------------------------------------------
    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Match ``events`` in order with a shared per-batch probe cache.

        Exact per the base-class contract: the index structures do not
        mutate during a batch, so a memoised stab / bucket lookup returns
        the very list a fresh probe would, and the per-event folds
        (overrides, proration, budget multipliers) consume it in the same
        order — element ``i`` is bitwise-identical to a sequential
        ``match(events[i], k)``.  Budgets settle after each event, so
        budget-window dynamics across the batch are preserved too.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        cache = probe_cache if probe_cache is not None else ProbeCache()
        out: List[List[MatchResult]] = []
        tracer = self.tracer
        if tracer is None:
            for event in events:
                results = self._select_topk(self._build_scoremap(event, cache), k)
                self._settle(results)
                out.append(results)
            return out
        with tracer.span(
            "fxtm.match_batch", algorithm=self.name, k=k, batch=len(events)
        ) as root:
            for event in events:
                scoremap = self._build_scoremap(event, cache, tracer)
                with tracer.span("topk.select", candidates=len(scoremap)) as select:
                    results = self._select_topk(scoremap, k)
                    select.annotate(results=len(results))
                self._settle(results)
                out.append(results)
            root.annotate(probe_hits=cache.hits, probe_misses=cache.misses)
        return out

    def _build_scoremap(
        self,
        event: Event,
        cache: Optional[ProbeCache] = None,
        tracer: Any = None,
    ) -> Dict[Any, float]:
        """Algorithm 2 lines 22-39: fold every probed weight per sid.

        The engine's one probe loop.  ``cache`` memoises probes, and the
        prorated folds of attributes without an override, across a
        batch.  ``tracer`` wraps each step in its pipeline span and
        records cache outcomes as zero-duration ``probe_cache.hit`` /
        ``probe_cache.miss`` spans.  An attached ``self.heat`` receives
        every structure probe with its scan statistics, and every cache
        outcome.  Each is consulted once per attribute probe, never per
        candidate, and none changes a score.
        """
        heat = self.heat
        use_event_weights = event.has_weights
        # Line 22: scoremap tracks scores of partially matched subscriptions.
        scoremap: Dict[Any, float] = {}
        for attribute, value in event.known_items():
            if tracer is None:
                structure = self._master_index.get(attribute)
            else:
                with tracer.span("master_index.lookup", attribute=attribute) as lookup:
                    structure = self._master_index.get(attribute)
                    lookup.annotate(hit=structure is not None)
            if structure is None:
                # No subscription constrains this attribute; partial
                # matching means it simply cannot affect any score.
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, _RangedAttributeIndex):
                interval = event.interval_of(attribute)
                qlo, qhi = interval.low, interval.high
                if heat is not None:
                    heat.record_region(attribute, qlo, qhi)
                matches = None if cache is None else cache.get_ranged(attribute, qlo, qhi)
                if matches is None:
                    tree = structure.tree
                    if cache is not None:
                        self._record_cache(attribute, "ranged", False, tracer, heat)
                    if tracer is None:
                        matches = tree.stab(qlo, qhi)
                    else:
                        with tracer.span(
                            "attribute.probe", attribute=attribute, kind="ranged"
                        ) as probe:
                            matches = tree.stab(qlo, qhi)
                            probe.annotate(candidates=len(matches))
                    if heat is not None:
                        scanned, skipped, blocks = tree.scan_stats(qlo, qhi)
                        heat.record_probe(
                            attribute,
                            "ranged",
                            candidates=len(matches),
                            scanned=scanned,
                            blocks_skipped=skipped,
                            blocks_total=blocks,
                        )
                    if cache is not None:
                        cache.put_ranged(attribute, qlo, qhi, matches)
                else:
                    self._record_cache(attribute, "ranged", True, tracer, heat)
                if tracer is None:
                    self._fold_ranged(scoremap, matches, attribute, qlo, qhi, override, cache)
                else:
                    with tracer.span("candidates.score", attribute=attribute):
                        self._fold_ranged(
                            scoremap, matches, attribute, qlo, qhi, override, cache
                        )
            else:
                pairs = None if cache is None else cache.get_discrete(attribute, value)
                if pairs is None:
                    if cache is not None:
                        self._record_cache(attribute, "discrete", False, tracer, heat)
                    if tracer is None:
                        bucket = structure.buckets.get(value)
                        pairs = bucket.get_all() if bucket is not None else []
                    else:
                        with tracer.span(
                            "attribute.probe", attribute=attribute, kind="discrete"
                        ) as probe:
                            bucket = structure.buckets.get(value)
                            pairs = bucket.get_all() if bucket is not None else []
                            probe.annotate(candidates=len(pairs))
                    if heat is not None:
                        heat.record_probe(attribute, "discrete", candidates=len(pairs))
                    if cache is not None:
                        cache.put_discrete(attribute, value, pairs)
                else:
                    self._record_cache(attribute, "discrete", True, tracer, heat)
                if not pairs:
                    continue
                if tracer is None:
                    self._fold_discrete(scoremap, pairs, override)
                else:
                    with tracer.span("candidates.score", attribute=attribute):
                        self._fold_discrete(scoremap, pairs, override)
        return scoremap

    @staticmethod
    def _record_cache(
        attribute: str, kind: str, hit: bool, tracer: Any, heat: Any
    ) -> None:
        """Report one probe-cache outcome to the tracer and heat monitor.

        A hit means the structure was not probed; a miss precedes the
        ``attribute.probe`` span it summarises.
        """
        if tracer is not None:
            if hit:
                tracer.record("probe_cache.hit", 0.0, attribute=attribute)
            else:
                tracer.record("probe_cache.miss", 0.0, attribute=attribute)
        if heat is not None:
            heat.record_cache(attribute, kind, hit=hit)

    def _fold_ranged(
        self,
        scoremap: Dict[Any, float],
        matches: List[Any],
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: Any,
        cache: Optional[ProbeCache] = None,
    ) -> None:
        """Fold one ranged attribute's stabbed entries into the scoremap.

        With a ``cache`` and no per-event override, the stab's prorated
        ``(sid, subscore)`` pairs are memoised under the stab key and
        folded from there; overrides always fold from the raw probe.
        """
        if cache is not None and override is None:
            scored = cache.get_scored(attribute, qlo, qhi)
            if scored is None:
                scored = self._scored_ranged(matches, attribute, qlo, qhi)
                cache.put_scored(attribute, qlo, qhi, scored)
            self._fold_scored(scoremap, scored)
            return
        aggregation = self.aggregation
        combine = aggregation.combine
        zero = aggregation.zero
        is_sum = aggregation is SUM
        if self.prorate:
            kind = self.schema.kind_of(attribute)
            constant = kind.proration_constant if kind is not None else 0
            event_width = qhi - qlo + constant
            for low, high, sid, weight in matches:
                if override is not None:
                    weight = override
                overlap = min(qhi, high) - max(qlo, low) + constant
                if event_width > 0:
                    fraction = overlap / event_width
                    if fraction > 1.0:
                        fraction = 1.0
                else:
                    fraction = 1.0
                subscore = weight * fraction
                if is_sum:
                    scoremap[sid] = scoremap.get(sid, 0.0) + subscore
                else:
                    scoremap[sid] = combine(scoremap.get(sid, zero), subscore)
        else:
            for _low, _high, sid, weight in matches:
                if override is not None:
                    weight = override
                if is_sum:
                    scoremap[sid] = scoremap.get(sid, 0.0) + weight
                else:
                    scoremap[sid] = combine(scoremap.get(sid, zero), weight)

    def _scored_ranged(
        self,
        matches: List[Any],
        attribute: str,
        qlo: Any,
        qhi: Any,
    ) -> List[Tuple[Any, float]]:
        """One stab's ``(sid, weight * fraction)`` pairs, fold-ready.

        Mirrors :meth:`_fold_ranged`'s no-override arithmetic exactly
        (same operations, same order), so folding these pairs is
        bitwise-identical to folding the raw probe — the precondition
        for memoising them in the batch probe cache.
        """
        if not self.prorate:
            return [(sid, weight) for _low, _high, sid, weight in matches]
        kind = self.schema.kind_of(attribute)
        constant = kind.proration_constant if kind is not None else 0
        event_width = qhi - qlo + constant
        scored: List[Tuple[Any, float]] = []
        for low, high, sid, weight in matches:
            overlap = min(qhi, high) - max(qlo, low) + constant
            if event_width > 0:
                fraction = overlap / event_width
                if fraction > 1.0:
                    fraction = 1.0
            else:
                fraction = 1.0
            scored.append((sid, weight * fraction))
        return scored

    def _fold_scored(
        self, scoremap: Dict[Any, float], pairs: List[Tuple[Any, float]]
    ) -> None:
        """Fold precomputed ``(sid, subscore)`` pairs into the scoremap."""
        aggregation = self.aggregation
        if aggregation is SUM:
            get = scoremap.get
            for sid, subscore in pairs:
                scoremap[sid] = get(sid, 0.0) + subscore
        else:
            combine = aggregation.combine
            zero = aggregation.zero
            for sid, subscore in pairs:
                scoremap[sid] = combine(scoremap.get(sid, zero), subscore)

    def _fold_discrete(
        self, scoremap: Dict[Any, float], pairs: Any, override: Any
    ) -> None:
        """Fold one discrete bucket's ``(sid, weight)`` pairs.

        Discrete equality matches are complete; proration is a no-op
        (fraction 1).
        """
        aggregation = self.aggregation
        combine = aggregation.combine
        zero = aggregation.zero
        is_sum = aggregation is SUM
        for sid, weight in pairs:
            if override is not None:
                weight = override
            if is_sum:
                scoremap[sid] = scoremap.get(sid, 0.0) + weight
            else:
                scoremap[sid] = combine(scoremap.get(sid, zero), weight)

    def _select_topk(self, scoremap: Dict[Any, float], k: int) -> List[MatchResult]:
        """Algorithm 2 lines 40-49: prune through the bounded top-k set."""
        topscores = BoundedTopK(k)
        tracker = self.budget_tracker
        include_nonpositive = self.include_nonpositive
        if tracker is None:
            for sid, score in scoremap.items():
                if score > 0.0 or include_nonpositive:
                    topscores.offer(sid, score)
        else:
            now = tracker.clock.now()
            states = tracker.states
            deactivate = tracker.deactivate_expired
            for sid, score in scoremap.items():
                state = states.get(sid)
                if state is not None:
                    if deactivate and state.expired(now):
                        score = 0.0
                    else:
                        score = score * state.multiplier(now)
                if score > 0.0 or include_nonpositive:
                    topscores.offer(sid, score)

        return sort_results(
            [MatchResult(sid, score) for sid, score in topscores.results_descending()]
        )
