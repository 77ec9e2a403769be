"""The array-native matching engine: FX-TM over structure-of-arrays.

:class:`ArrayTopKMatcher` computes exactly what
:class:`~repro.core.matcher.FXTMMatcher` computes — same algorithm, same
fold order, bitwise-identical scores — but swaps every pointer-chased
structure on the match path for flat arrays
(:mod:`repro.structures.soa`):

* a ranged probe is a ``bisect_right`` over the sorted lows plus a
  contiguous block scan (64-entry ``max_high`` skip table), instead of
  a tree walk materialising ``(low, high, sid, weight)`` tuples;
* score folding accumulates into a flat list indexed by a
  dense interned slot per subscription, instead of hashing sids into a
  per-match dict — a generation-stamped ``mark`` array makes resetting
  the accumulator free;
* top-k selection runs :class:`~repro.structures.treeset.BoundedTopK`'s
  heap inline: a ``heapq`` of ``(score, sid)`` tuples with the same
  strict ``score > min`` rule and the same ``(score, sid)`` eviction
  order, without an ``offer`` call per candidate.

Equivalence notes (pinned by ``tests/structures/test_soa_differential.py``):

* candidates emerge in the interval tree's exact ``(low, high, sid)``
  stab order, and the first-touch order of the slot accumulator equals
  the reference scoremap's dict-insertion order;
* a first touch stores ``0.0 + subscore`` — the very float the
  reference's ``scoremap.get(sid, 0.0) + subscore`` produces;
* proration arithmetic is performed on the same values in the same
  operation order as ``FXTMMatcher._fold_ranged``.

The optional numpy backend (``backend="numpy"``, ``"auto"`` detects it)
vectorises candidate selection and per-candidate subscore computation;
accumulation stays scalar and in-order, so elementwise IEEE-754 float64
operations keep the results bitwise-identical.  Slices of at most one
skip block, and attributes whose endpoints do not round-trip float64
exactly, transparently fall back to the pure-python scan — the numpy
backend can therefore only improve throughput, never change a result.
The pure-python backend is mandatory and fully featured.
"""

from __future__ import annotations

import os
from heapq import heappush, heapreplace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeKind, Interval
from repro.core.events import Event
from repro.core.interfaces import TopKMatcher
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult, sort_results
from repro.core.scoring import SUM, infer_kind
from repro.core.subscriptions import Constraint, Subscription
from repro.errors import SchemaError
from repro.structures.soa import (
    SoADiscreteBucket,
    SoADiscreteIndex,
    SoARangedIndex,
    numpy_available,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

# Honour the same numpy-less simulation switch as repro.structures.soa,
# so one env var disables the optional backend everywhere at once.
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None  # type: ignore[assignment]

__all__ = ["ArrayTopKMatcher"]

#: Below this many cutoff entries the numpy call overhead dominates the
#: vectorisation win (measured crossover a few hundred entries on CPython 3.11); the
#: scalar packed scan is used instead.
_NUMPY_MIN_CUTOFF = 512

_BACKENDS = ("auto", "python", "numpy")


class ArrayTopKMatcher(TopKMatcher):
    """FX-TM with structure-of-arrays probes and bucketed accumulation.

    ``backend`` selects the probe/scoring implementation: ``"python"``
    (pure-python arrays), ``"numpy"`` (vectorised candidate selection
    and subscore computation; raises :class:`ValueError` when numpy is
    not importable), or ``"auto"`` (numpy when available, else python).

    Everything else — proration, per-event weight overrides, UNKNOWN
    handling, budget multipliers, ``match_batch`` probe caching — is
    exactly the reference engine's behaviour.  The ``tracer`` attribute
    is accepted for interface compatibility but the array engine emits
    no pipeline spans; wrap it in
    :class:`~repro.core.stats.InstrumentedMatcher` for metrics.

    >>> from repro.core.attributes import Interval
    >>> from repro.core.subscriptions import Constraint, Subscription
    >>> from repro.core.events import Event
    >>> matcher = ArrayTopKMatcher(prorate=True)
    >>> matcher.add_subscription(Subscription("spring-break", [
    ...     Constraint("age", Interval(18, 24), weight=2.0),
    ...     Constraint("state", "Indiana", weight=1.0)]))
    >>> matcher.match(Event({"age": Interval(20, 30), "state": "Indiana"}), k=1)
    [MatchResult(sid='spring-break', score=...)]
    """

    name = "fx-tm-array"

    def __init__(self, backend: str = "auto", **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if backend == "numpy" and not numpy_available():
            raise ValueError("backend='numpy' requested but numpy is not importable")
        #: The resolved backend actually in use: "python" or "numpy".
        self.backend = "numpy" if backend != "python" and numpy_available() else "python"
        self._master_index: Dict[str, Any] = {}
        # Dense sid interning: slot -> sid (and back), with freed slots
        # recycled so the accumulator stays compact under churn.
        self._sid_of: List[Any] = []
        self._slot_of: Dict[Any, int] = {}
        self._free: List[int] = []
        # The bucketed score accumulator: acc[slot] holds the running
        # score; mark[slot] == gen iff the slot was touched this match
        # (generation stamping makes resetting between matches free).
        self._acc: List[float] = []
        self._mark: List[int] = []
        self._gen = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern(self, sid: Any) -> int:
        slot = self._slot_of.get(sid)
        if slot is not None:
            return slot
        if self._free:
            slot = self._free.pop()
            self._sid_of[slot] = sid
        else:
            slot = len(self._sid_of)
            self._sid_of.append(sid)
            self._acc.append(0.0)
            self._mark.append(0)
        self._slot_of[sid] = slot
        return slot

    # ------------------------------------------------------------------
    # Algorithm 1: adding and removing subscriptions
    # ------------------------------------------------------------------
    def _index_subscription(self, subscription: Subscription) -> None:
        sid = subscription.sid
        # Resolve every kind before touching any structure (same
        # exception-safety order as the reference engine).
        kinds = [self._resolve_kind(constraint) for constraint in subscription.constraints]
        slot = self._intern(sid)
        for constraint, kind in zip(subscription.constraints, kinds):
            structure = self._master_index.get(constraint.attribute)
            if structure is None:
                structure = SoARangedIndex() if kind.is_ranged else SoADiscreteIndex()
                self._master_index[constraint.attribute] = structure
            if isinstance(structure, SoARangedIndex):
                interval = constraint.interval()
                structure.insert(interval.low, interval.high, sid, constraint.weight, slot)
            else:
                structure.insert(_discrete_values(constraint), sid, constraint.weight, slot)

    def _deindex_subscription(self, subscription: Subscription) -> None:
        sid = subscription.sid
        for constraint in subscription.constraints:
            structure = self._master_index[constraint.attribute]
            if isinstance(structure, SoARangedIndex):
                interval = constraint.interval()
                structure.delete(interval.low, interval.high, sid)
            else:
                structure.delete(_discrete_values(constraint), sid)
            if not len(structure):
                del self._master_index[constraint.attribute]
        slot = self._slot_of.pop(sid)
        self._sid_of[slot] = None
        self._free.append(slot)

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

    def ensure_built(self) -> None:
        """Warm every ranged attribute's read view (skip table, mirrors).

        Called by the benchmark harness after loading so the one-time
        array build is charged to load time, not the first match.
        """
        want_numpy = self.backend == "numpy"
        for structure in self._master_index.values():
            if isinstance(structure, SoARangedIndex):
                structure.ensure_view(want_numpy)

    # ------------------------------------------------------------------
    # Algorithm 2: weighted partial matching
    # ------------------------------------------------------------------
    def _match_topk(self, event: Event, k: int) -> List[MatchResult]:
        return self._select_topk(self._fold_event(event), k)

    def _next_gen(self) -> int:
        self._gen += 1
        return self._gen

    def _fold_event(self, event: Event, cache: Optional[ProbeCache] = None) -> List[int]:
        """Fold every probed weight into the slot accumulator.

        The engine's one probe loop.  Returns the touched slots in
        first-touch order — the array analogue of the reference
        scoremap's dict-insertion order.

        With neither ``cache`` nor ``self.heat`` a ranged probe is the
        fused scan-and-fold (:meth:`_fold_ranged_numpy` /
        :meth:`_fold_ranged_python`), which materialises no candidate
        list.  Otherwise it goes through :meth:`SoARangedIndex.candidates`
        and :meth:`_scored_candidates` / :meth:`_fold_candidates_override`
        — pinned bitwise-identical to the fused route by the differential
        suite — so ``cache`` can memoise candidates and scored folds, and
        the heat monitor can count them.  Both are consulted once per
        attribute probe, never per candidate.
        """
        gen = self._next_gen()
        order: List[int] = []
        heat = self.heat
        use_event_weights = event.has_weights
        use_numpy = self.backend == "numpy"
        for attribute, value in event.known_items():
            structure = self._master_index.get(attribute)
            if structure is None:
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, SoARangedIndex):
                interval = event.interval_of(attribute)
                qlo, qhi = interval.low, interval.high
                if cache is None and heat is None:
                    if use_numpy and self._fold_ranged_numpy(
                        structure, attribute, qlo, qhi, override, order, gen
                    ):
                        continue
                    self._fold_ranged_python(
                        structure, attribute, qlo, qhi, override, order, gen
                    )
                    continue
                if heat is not None:
                    heat.record_region(attribute, qlo, qhi)
                candidates = (
                    None if cache is None else cache.get_candidates(attribute, qlo, qhi)
                )
                if candidates is None:
                    candidates = structure.candidates(qlo, qhi, use_numpy=use_numpy)
                    if heat is not None:
                        if cache is not None:
                            heat.record_cache(attribute, "ranged", hit=False)
                        scanned, skipped, blocks = structure.scan_stats(qlo, qhi)
                        heat.record_probe(
                            attribute,
                            "ranged",
                            candidates=len(candidates),
                            scanned=scanned,
                            blocks_skipped=skipped,
                            blocks_total=blocks,
                        )
                    if cache is not None:
                        cache.put_candidates(attribute, qlo, qhi, candidates)
                elif heat is not None:
                    heat.record_cache(attribute, "ranged", hit=True)
                if not candidates:
                    continue
                if override is not None:
                    self._fold_candidates_override(
                        structure, candidates, attribute, qlo, qhi, override, order, gen
                    )
                    continue
                scored = None if cache is None else cache.get_scored(attribute, qlo, qhi)
                if scored is None:
                    scored = self._scored_candidates(
                        structure, candidates, attribute, qlo, qhi
                    )
                    if cache is not None:
                        cache.put_scored(attribute, qlo, qhi, scored)
                self._fold_pairs(scored, None, order, gen, precomputed=True)
            else:
                pairs = None if cache is None else cache.get_discrete(attribute, value)
                if pairs is None:
                    bucket = structure.buckets.get(value)
                    count = len(bucket) if bucket is not None else 0
                    if heat is not None:
                        if cache is not None:
                            heat.record_cache(attribute, "discrete", hit=False)
                        heat.record_probe(attribute, "discrete", candidates=count)
                    if cache is None:
                        # Folded once and never stored: no pair list to build.
                        if count:
                            self._fold_pairs(
                                zip(bucket.slots, bucket.weights), override, order, gen
                            )
                        continue
                    pairs = _bucket_pairs(bucket) if count else []
                    cache.put_discrete(attribute, value, pairs)
                elif heat is not None:
                    heat.record_cache(attribute, "discrete", hit=True)
                if pairs:
                    self._fold_pairs(pairs, override, order, gen)
        return order

    def _proration_constant(self, attribute: str) -> int:
        kind = self.schema.kind_of(attribute)
        return kind.proration_constant if kind is not None else 0

    def _fold_ranged_python(
        self,
        index: SoARangedIndex,
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: Optional[float],
        order: List[int],
        gen: int,
    ) -> None:
        """Scan-and-fold one ranged attribute, entirely in one pass.

        Arithmetic mirrors ``FXTMMatcher._fold_ranged`` operation for
        operation so the accumulated floats are bitwise-identical.
        """
        stop = index.cutoff(qhi)
        if not stop:
            return
        view = index.ensure_view(False)
        block_max = view[2]
        packed = view[7]
        acc = self._acc
        mark = self._mark
        append = order.append
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        combine = aggregation.combine
        zero = aggregation.zero
        prorate = self.prorate
        if prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
            positive_width = event_width > 0
        use_override = override is not None
        for start in range(0, stop, 64):
            if block_max[start // 64] < qlo:
                continue
            end = start + 64
            for low, high, weight, slot in packed[start:end if end < stop else stop]:
                if high < qlo:
                    continue
                if use_override:
                    weight = override
                if prorate:
                    # Conditional expressions are builtin min/max with
                    # their exact tie semantics (first argument wins),
                    # minus the call overhead.
                    overlap = (
                        (qhi if qhi <= high else high)
                        - (qlo if qlo >= low else low)
                        + constant
                    )
                    if positive_width:
                        fraction = overlap / event_width
                        if fraction > 1.0:
                            fraction = 1.0
                    else:
                        fraction = 1.0
                    subscore = weight * fraction
                else:
                    subscore = weight
                if mark[slot] != gen:
                    mark[slot] = gen
                    append(slot)
                    acc[slot] = 0.0 + subscore if is_sum else combine(zero, subscore)
                elif is_sum:
                    acc[slot] = acc[slot] + subscore
                else:
                    acc[slot] = combine(acc[slot], subscore)

    def _fold_ranged_numpy(
        self,
        index: SoARangedIndex,
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: Optional[float],
        order: List[int],
        gen: int,
    ) -> bool:
        """Vectorised scan-and-score; returns False to request fallback.

        Candidate selection and subscore computation run as elementwise
        float64 array operations (bitwise-identical to the scalar path);
        accumulation stays scalar and in-order.  Falls back when the
        slice is small, the query endpoints are not float64-exact, or
        the attribute's mirrors could not be built.
        """
        if _np is None:
            return False
        stop = index.cutoff(qhi)
        if not stop:
            return True
        if stop < _NUMPY_MIN_CUTOFF or float(qlo) != qlo or float(qhi) != qhi:
            return False
        view = index.ensure_view(True)
        np_his = view[4]
        if np_his is None:
            return False
        found = _np.flatnonzero(np_his[:stop] >= qlo)
        if not found.size:
            return True
        slot_list: List[int] = view[6][found].tolist()
        if self.prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
            overlap = (
                _np.minimum(qhi, np_his[found])
                - _np.maximum(qlo, view[3][found])
                + constant
            )
            if event_width > 0:
                fraction = overlap / event_width
                _np.minimum(fraction, 1.0, out=fraction)
            else:
                fraction = _np.ones_like(overlap)
            if override is None:
                subscores: List[float] = (view[5][found] * fraction).tolist()
            else:
                subscores = (override * fraction).tolist()
        elif override is None:
            subscores = view[5][found].tolist()
        else:
            subscores = [override] * len(slot_list)
        self._fold_pairs(zip(slot_list, subscores), None, order, gen, precomputed=True)
        return True

    def _fold_pairs(
        self,
        pairs: Any,
        override: Optional[float],
        order: List[int],
        gen: int,
        precomputed: bool = False,
    ) -> None:
        """Fold ``(slot, weight-or-subscore)`` pairs into the accumulator.

        With ``precomputed`` the second element is a finished subscore;
        otherwise it is a stored weight that ``override`` may replace
        (the discrete fold — proration is a no-op for equality matches).
        """
        acc = self._acc
        mark = self._mark
        append = order.append
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        combine = aggregation.combine
        zero = aggregation.zero
        use_override = override is not None and not precomputed
        for slot, subscore in pairs:
            if use_override:
                subscore = override
            if mark[slot] != gen:
                mark[slot] = gen
                append(slot)
                acc[slot] = 0.0 + subscore if is_sum else combine(zero, subscore)
            elif is_sum:
                acc[slot] = acc[slot] + subscore
            else:
                acc[slot] = combine(acc[slot], subscore)

    # ------------------------------------------------------------------
    # Top-k selection (Algorithm 2 lines 40-49, heapq replay)
    # ------------------------------------------------------------------
    def _select_topk(self, order: List[int], k: int) -> List[MatchResult]:
        acc = self._acc
        sid_of = self._sid_of
        include_nonpositive = self.include_nonpositive
        tracker = self.budget_tracker
        # BoundedTopK.offer inlined: heap holds (score, sid), heap[0] is
        # the lexicographic minimum, and heapreplace evicts it under the
        # strict > rule.
        heap: List[Tuple[float, Any]] = []
        if tracker is None:
            for slot in order:
                total = acc[slot]
                if total > 0.0 or include_nonpositive:
                    if len(heap) < k:
                        heappush(heap, (total, sid_of[slot]))
                    elif total > heap[0][0]:
                        heapreplace(heap, (total, sid_of[slot]))
        else:
            now = tracker.clock.now()
            states = tracker.states
            deactivate = tracker.deactivate_expired
            for slot in order:
                total = acc[slot]
                sid = sid_of[slot]
                state = states.get(sid)
                if state is not None:
                    if deactivate and state.expired(now):
                        total = 0.0
                    else:
                        total = total * state.multiplier(now)
                if total > 0.0 or include_nonpositive:
                    if len(heap) < k:
                        heappush(heap, (total, sid))
                    elif total > heap[0][0]:
                        heapreplace(heap, (total, sid))
        heap.sort(reverse=True)  # descending (score, sid): results order
        return sort_results([MatchResult(sid, total) for total, sid in heap])

    # ------------------------------------------------------------------
    # Batched matching: shared per-batch probe cache
    # ------------------------------------------------------------------
    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Match ``events`` in order with memoised probes.

        Same exactness contract as the reference engine: candidate index
        lists are memoised by stab key, prorated ``(slot, subscore)``
        folds by the same key — and, as in the reference, any per-event
        weight override bypasses the memoised scored folds for that
        attribute and folds from the raw candidates instead.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        cache = probe_cache if probe_cache is not None else ProbeCache()
        out: List[List[MatchResult]] = []
        for event in events:
            results = self._select_topk(self._fold_event(event, cache), k)
            self._settle(results)
            out.append(results)
        return out

    def _scored_candidates(
        self,
        index: SoARangedIndex,
        candidates: List[int],
        attribute: str,
        qlo: Any,
        qhi: Any,
    ) -> List[Tuple[Any, float]]:
        """One stab's ``(slot, subscore)`` pairs, cacheable per stab key.

        Valid only without per-event overrides — overrides fold from the
        raw candidates (:meth:`_fold_candidates_override`).
        """
        weights = index.weights
        if not self.prorate:
            slots = index.slots
            return [(slots[i], weights[i]) for i in candidates]
        los = index.los
        his = index.his
        slots = index.slots
        constant = self._proration_constant(attribute)
        event_width = qhi - qlo + constant
        scored: List[Tuple[Any, float]] = []
        for i in candidates:
            overlap = min(qhi, his[i]) - max(qlo, los[i]) + constant
            if event_width > 0:
                fraction = overlap / event_width
                if fraction > 1.0:
                    fraction = 1.0
            else:
                fraction = 1.0
            scored.append((slots[i], weights[i] * fraction))
        return scored

    def _fold_candidates_override(
        self,
        index: SoARangedIndex,
        candidates: List[int],
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: float,
        order: List[int],
        gen: int,
    ) -> None:
        """Fold raw candidates with the event's override weight."""
        acc = self._acc
        mark = self._mark
        append = order.append
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        combine = aggregation.combine
        zero = aggregation.zero
        los = index.los
        his = index.his
        slots = index.slots
        prorate = self.prorate
        if prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
        for i in candidates:
            if prorate:
                overlap = min(qhi, his[i]) - max(qlo, los[i]) + constant
                if event_width > 0:
                    fraction = overlap / event_width
                    if fraction > 1.0:
                        fraction = 1.0
                else:
                    fraction = 1.0
                subscore = override * fraction
            else:
                subscore = override
            slot = slots[i]
            if mark[slot] != gen:
                mark[slot] = gen
                append(slot)
                acc[slot] = 0.0 + subscore if is_sum else combine(zero, subscore)
            elif is_sum:
                acc[slot] = acc[slot] + subscore
            else:
                acc[slot] = combine(acc[slot], subscore)


def _discrete_values(constraint: Constraint) -> Tuple[Any, ...]:
    """The bucket keys one discrete constraint indexes under."""
    return tuple(constraint.value) if constraint.is_set else (constraint.value,)


def _bucket_pairs(bucket: SoADiscreteBucket) -> List[Tuple[Any, float]]:
    """A bucket's ``(slot, weight)`` pairs in sid order (cacheable)."""
    return list(zip(bucket.slots, bucket.weights))
