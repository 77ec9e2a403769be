"""The array-native matching engine: FX-TM over structure-of-arrays.

:class:`ArrayTopKMatcher` computes exactly what
:class:`~repro.core.matcher.FXTMMatcher` computes — same algorithm, same
fold order, bitwise-identical scores — but swaps every pointer-chased
structure on the match path for flat arrays
(:mod:`repro.structures.soa`):

* a ranged probe is a ``bisect_right`` over the sorted lows plus a
  contiguous block scan (64-entry ``max_high`` skip table), instead of
  a tree walk materialising ``(low, high, sid, weight)`` tuples;
* score folding accumulates into a dense accumulator indexed by an
  interned slot per subscription, instead of hashing sids into a
  per-match dict — a generation-stamped ``mark`` array makes resetting
  the accumulator free;
* top-k selection runs :class:`~repro.structures.treeset.BoundedTopK`'s
  heap inline: a ``heapq`` of ``(score, sid)`` tuples with the same
  strict ``score > min`` rule and the same ``(score, sid)`` eviction
  order, without an ``offer`` call per candidate.

The accumulator is per-thread scratch: :class:`ThreadSafeMatcher
<repro.core.concurrent.ThreadSafeMatcher>` runs matches concurrently
under its read lock, so no two matches may share one.

Two backends compute the fold.  The pure-python backend is mandatory,
fully featured and the scalar oracle: it folds candidate by candidate.
The numpy backend (``backend="numpy"``; ``"auto"`` picks it when numpy
is importable and the aggregation is SUM, MAX or MIN) is columnar end
to end once its indexes average :data:`_COLUMNAR_MIN_ENTRIES` entries
per attribute: every attribute probe yields a ``(slots, subscores)``
array pair, scattered into a float64 accumulator with a few numpy calls
per probe, and selection partitions the totals before replaying only
the survivors through the heap.  No Python loop runs per candidate,
except the Definition 4 multiplier loop under a budget tracker.  On
smaller indexes the per-probe numpy calls cost more than the scalar
fold, so the numpy backend runs the scalar route there.

Equivalence notes (pinned by ``tests/structures/test_soa_differential.py``
and ``tests/structures/test_soa_wide_differential.py``):

* candidates emerge in the interval tree's exact ``(low, high, sid)``
  stab order, and the first-touch order of the slot accumulator equals
  the reference scoremap's dict-insertion order — in the numpy backend,
  the concatenation of each probe's newly touched slots;
* a first touch stores ``0.0 + subscore`` — the very float the
  reference's ``scoremap.get(sid, 0.0) + subscore`` produces — and a
  subscription constrains an attribute at most once, so the numpy
  scatter ``acc[slots] += subscores`` adds each sid's subscores in
  attribute order, like the scalar fold;
* MAX and MIN scatter ``where(sub > acc, sub, acc)`` /
  ``where(sub < acc, sub, acc)``: builtin ``max(acc, sub)`` /
  ``min(acc, sub)`` with their argument order;
* proration arithmetic is performed on the same values in the same
  operation order as ``FXTMMatcher._fold_ranged``, elementwise in
  IEEE-754 float64 — which is exact only while every endpoint and query
  bound round-trips float64, so an attribute or query that does not
  takes the scalar route and converts its pairs to arrays.
"""

from __future__ import annotations

import os
import threading
from heapq import heappush, heapreplace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeKind, Interval
from repro.core.events import Event
from repro.core.interfaces import TopKMatcher
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult, sort_results
from repro.core.scoring import MAX, MIN, SUM, infer_kind
from repro.core.subscriptions import Constraint, Subscription
from repro.errors import SchemaError
from repro.structures.soa import (
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

_BACKENDS = ("auto", "python", "numpy")

#: Aggregations the numpy backend scatters; any other folds in python.
_COLUMNAR_AGGREGATIONS = (SUM, MAX, MIN)

#: The numpy backend folds columnar only while its indexes average at
#: least this many entries per attribute.  A columnar probe costs about
#: twenty numpy calls whatever its size, so on smaller indexes the scalar
#: route wins.  On Table 2 micro data (12 probes per event, best of 3
#: rounds of 400 matches) the scalar route took 130 µs a match against
#: the columnar route's 172 µs at 120 entries per attribute and k = 10,
#: 178 against 173 µs at 192, and 236 against 185 µs at 240; at k = 200
#: the routes cross near 120 entries per attribute.
_COLUMNAR_MIN_ENTRIES = 192

#: One probe's fold as columns: ``(int64 slots, float64 subscores)``.
_Columns = Tuple[Any, Any]


class _Scratch(threading.local):
    """One thread's per-match working memory.

    ``acc[slot]`` holds the running score and ``mark[slot] == gen`` iff
    the slot was touched in the current match, so opening a generation
    resets the accumulator for free.  ``acc``/``mark`` are the scalar
    route's lists, ``dense_acc``/``dense_mark`` the columnar route's
    float64/int64 arrays.  Both grow at match time (the arrays
    geometrically), never per ADD.
    """

    def __init__(self) -> None:
        self.acc: List[float] = []
        self.mark: List[int] = []
        self.dense_acc: Any = ()
        self.dense_mark: Any = ()
        self.gen = 0

    def begin(self, size: int) -> int:
        """Open a scalar-route generation over ``size`` slots."""
        grow = size - len(self.acc)
        if grow > 0:
            self.acc.extend([0.0] * grow)
            self.mark.extend([0] * grow)
        self.gen += 1
        return self.gen

    def begin_dense(self, size: int) -> int:
        """Open a columnar-route generation over ``size`` slots."""
        have = len(self.dense_acc)
        if have < size:
            capacity = max(size, 2 * have)
            self.dense_acc = _np.zeros(capacity)
            self.dense_mark = _np.zeros(capacity, dtype=_np.int64)
        self.gen += 1
        return self.gen


class ArrayTopKMatcher(TopKMatcher):
    """FX-TM with structure-of-arrays probes and a dense slot accumulator.

    ``backend`` selects the fold: ``"python"`` (scalar, candidate by
    candidate), ``"numpy"`` (columnar: one array pair per probe; raises
    :class:`ValueError` when numpy is not importable or the aggregation
    is not SUM, MAX or MIN), or ``"auto"`` (numpy when it can, else
    python).

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
        columnar = numpy_available() and self.aggregation in _COLUMNAR_AGGREGATIONS
        if backend == "numpy" and not columnar:
            raise ValueError(
                "backend='numpy' requested but numpy is not importable"
                if not numpy_available()
                else f"backend='numpy' cannot fold {self.aggregation!r}"
            )
        #: The resolved backend actually in use: "python" or "numpy".
        self.backend = "numpy" if backend != "python" and columnar else "python"
        self._master_index: Dict[str, Any] = {}
        # Dense sid interning: slot -> sid (and back), with freed slots
        # recycled so the accumulator stays compact under churn.
        self._sid_of: List[Any] = []
        self._slot_of: Dict[Any, int] = {}
        self._free: List[int] = []
        # Constraints indexed, across every attribute (the route rule).
        self._entries = 0
        self._scratch = _Scratch()

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
            self._entries += 1

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
            self._entries -= 1
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
        """Warm every attribute's read view (skip table, mirrors, columns).

        Called by the benchmark harness after loading so the one-time
        array build is charged to load time, not the first match.
        """
        columnar = self._columnar()
        for structure in self._master_index.values():
            if isinstance(structure, SoARangedIndex):
                structure.ensure_view(columnar)
            elif columnar:
                for bucket in structure.buckets.values():
                    bucket.columns()

    # ------------------------------------------------------------------
    # Algorithm 2: weighted partial matching
    # ------------------------------------------------------------------
    def _match_topk(self, event: Event, k: int) -> List[MatchResult]:
        return self._fold_and_select(event, k, None)

    def _columnar(self) -> bool:
        """Whether matches take the columnar route (numpy, wide indexes).

        The rule reads only the index, so every match of a batch takes
        one route and the probe cache holds one representation.
        """
        return (
            self.backend == "numpy"
            and self._entries >= _COLUMNAR_MIN_ENTRIES * len(self._master_index)
        )

    def _fold_and_select(
        self, event: Event, k: int, cache: Optional[ProbeCache]
    ) -> List[MatchResult]:
        if self._columnar():
            return self._select_columns(self._fold_columns(event, cache), k)
        return self._select_topk(self._fold_event(event, cache), self._scratch.acc, k)

    def _proration_constant(self, attribute: str) -> int:
        kind = self.schema.kind_of(attribute)
        return kind.proration_constant if kind is not None else 0

    # -- the scalar route: candidate by candidate ----------------------
    def _fold_event(self, event: Event, cache: Optional[ProbeCache] = None) -> List[int]:
        """Fold every probed weight into this thread's slot accumulator.

        The scalar route's probe loop: the python backend's, and the
        numpy backend's below :data:`_COLUMNAR_MIN_ENTRIES`.  Returns the
        touched slots in first-touch order — the array analogue of the
        reference scoremap's dict-insertion order.

        With neither ``cache`` nor ``self.heat`` a ranged probe is the
        fused scan-and-fold (:meth:`_fold_ranged_python`), which
        materialises no candidate list.  Otherwise it goes through
        :meth:`SoARangedIndex.candidates` and :meth:`_scored_candidates`
        — pinned bitwise-identical to the fused route by the differential
        suite — so ``cache`` can memoise candidates and scored folds, and
        the heat monitor can count them.  Both are consulted once per
        attribute probe, never per candidate.
        """
        scratch = self._scratch
        gen = scratch.begin(len(self._sid_of))
        order: List[int] = []
        heat = self.heat
        use_event_weights = event.has_weights
        for attribute, value in event.known_items():
            structure = self._master_index.get(attribute)
            if structure is None:
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, SoARangedIndex):
                interval = event.interval_of(attribute)
                qlo, qhi = interval.low, interval.high
                if cache is None and heat is None:
                    self._fold_ranged_python(
                        structure, attribute, qlo, qhi, override, order, gen
                    )
                    continue
                candidates = self._probe_ranged(structure, attribute, qlo, qhi, cache)
                if not candidates:
                    continue
                if override is not None:
                    scored = self._scored_candidates(
                        structure, candidates, attribute, qlo, qhi, override
                    )
                else:
                    scored = None if cache is None else cache.get_scored(attribute, qlo, qhi)
                    if scored is None:
                        scored = self._scored_candidates(
                            structure, candidates, attribute, qlo, qhi
                        )
                        if cache is not None:
                            cache.put_scored(attribute, qlo, qhi, scored)
                self._fold_pairs(scored, None, order, gen)
            else:
                pairs = self._probe_discrete(structure, attribute, value, cache)
                if pairs is not None:
                    self._fold_pairs(pairs, override, order, gen)
        return order

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
        acc = self._scratch.acc
        mark = self._scratch.mark
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

    def _fold_pairs(
        self,
        pairs: Iterable[Tuple[int, float]],
        override: Optional[float],
        order: List[int],
        gen: int,
    ) -> None:
        """Fold ``(slot, subscore)`` pairs into the accumulator.

        ``override``, when given, replaces every pair's stored weight
        (the discrete fold — proration is a no-op for equality matches).
        """
        acc = self._scratch.acc
        mark = self._scratch.mark
        append = order.append
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        combine = aggregation.combine
        zero = aggregation.zero
        use_override = override is not None
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

    # -- the columnar route: one array pass per probe -------------------
    def _fold_columns(
        self, event: Event, cache: Optional[ProbeCache] = None
    ) -> List[Any]:
        """Scatter every probe's ``(slots, subscores)`` columns.

        The columnar route's probe loop.  Returns the newly touched slots
        of each probe, whose concatenation is the first-touch order.
        """
        scratch = self._scratch
        gen = scratch.begin_dense(len(self._sid_of))
        acc = scratch.dense_acc
        mark = scratch.dense_mark
        aggregation = self.aggregation
        parts: List[Any] = []
        use_event_weights = event.has_weights
        for attribute, value in event.known_items():
            structure = self._master_index.get(attribute)
            if structure is None:
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, SoARangedIndex):
                interval = event.interval_of(attribute)
                columns = self._ranged_columns(
                    structure, attribute, interval.low, interval.high, override, cache
                )
            else:
                columns = self._discrete_columns(structure, attribute, value, override, cache)
            if columns is None:
                continue
            slots, subscores = columns
            # Before the first scatter every slot is fresh.
            fresh = slots[mark[slots] != gen] if parts else slots
            if fresh.size:
                mark[fresh] = gen
                parts.append(fresh)
            if aggregation is SUM:
                if fresh is slots:
                    acc[slots] = subscores + 0.0  # 0.0 + subscore
                else:
                    acc[fresh] = 0.0
                    acc[slots] += subscores
            else:
                acc[fresh] = aggregation.zero
                current = acc[slots]
                wins = subscores > current if aggregation is MAX else subscores < current
                acc[slots] = _np.where(wins, subscores, current)
        return parts

    def _ranged_columns(
        self,
        index: SoARangedIndex,
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: Optional[float],
        cache: Optional[ProbeCache],
    ) -> Optional[_Columns]:
        """One ranged probe as columns, or ``None`` when nothing overlaps."""
        found = self._probe_ranged(index, attribute, qlo, qhi, cache, columnar=True)
        if not len(found):
            return None
        if isinstance(found, list):
            # Not float64-exact: the scalar route's pairs, as arrays.
            slots, subscores = zip(
                *self._scored_candidates(index, found, attribute, qlo, qhi, override)
            )
            return _np.asarray(slots, dtype=_np.int64), _np.asarray(subscores, dtype=_np.float64)
        if override is None and cache is not None:
            scored: Optional[_Columns] = cache.get_scored(attribute, qlo, qhi)
            if scored is not None:
                return scored
        view = index.ensure_view(True)
        slots = view[6][found]
        if self.prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
            if event_width > 0:
                overlap = (
                    _np.minimum(qhi, view[4][found])
                    - _np.maximum(qlo, view[3][found])
                    + constant
                )
                fraction = overlap / event_width
                _np.minimum(fraction, 1.0, out=fraction)
            else:
                fraction = _np.ones(found.size)
            weights = view[5][found] if override is None else override
            subscores = weights * fraction
        elif override is None:
            subscores = view[5][found]
        else:
            subscores = _np.full(found.size, override, dtype=_np.float64)
        if override is None and cache is not None:
            cache.put_scored(attribute, qlo, qhi, (slots, subscores))
        return slots, subscores

    def _discrete_columns(
        self,
        index: SoADiscreteIndex,
        attribute: str,
        value: Any,
        override: Optional[float],
        cache: Optional[ProbeCache],
    ) -> Optional[_Columns]:
        """One discrete probe as columns, or ``None`` for an empty bucket."""
        columns = self._probe_discrete(index, attribute, value, cache, columnar=True)
        if columns is None:
            return None
        slots, weights = columns
        if override is not None:
            return slots, _np.full(slots.size, override, dtype=_np.float64)
        return slots, weights

    # -- probe bookkeeping shared by both backends -----------------------
    def _probe_ranged(
        self,
        index: SoARangedIndex,
        attribute: str,
        qlo: Any,
        qhi: Any,
        cache: Optional[ProbeCache],
        columnar: bool = False,
    ) -> Any:
        """One ranged stab through the probe cache and heat monitor.

        Returns the overlapping positions: a list from the scalar scan,
        or with ``columnar`` an int64 array whenever the vectorised
        compare is exact (:meth:`SoARangedIndex.candidate_array`).  A
        cache hit returns what the miss stored.
        """
        heat = self.heat
        if heat is not None:
            heat.record_region(attribute, qlo, qhi)
        found = None if cache is None else cache.get_candidates(attribute, qlo, qhi)
        if found is not None:
            if heat is not None:
                heat.record_cache(attribute, "ranged", hit=True)
            return found
        found = index.candidate_array(qlo, qhi) if columnar else None
        if found is None:
            found = index.candidates(qlo, qhi)
        if heat is not None:
            if cache is not None:
                heat.record_cache(attribute, "ranged", hit=False)
            scanned, skipped, blocks = index.scan_stats(qlo, qhi)
            heat.record_probe(
                attribute,
                "ranged",
                candidates=len(found),
                scanned=scanned,
                blocks_skipped=skipped,
                blocks_total=blocks,
            )
        if cache is not None:
            cache.put_candidates(attribute, qlo, qhi, found)
        return found

    def _probe_discrete(
        self,
        index: SoADiscreteIndex,
        attribute: str,
        value: Any,
        cache: Optional[ProbeCache],
        columnar: bool = False,
    ) -> Any:
        """One discrete probe's ``(slot, weight)`` pairs, or ``None`` when empty.

        With ``columnar`` the pairs are the bucket's ``(slots, weights)``
        arrays; otherwise a list when memoised, else a zip over the
        bucket.  Counts the probe toward the cache and heat monitor as
        the reference engine does.
        """
        heat = self.heat
        if cache is not None:
            found = cache.get_discrete(attribute, value)
            if found is not None:
                if heat is not None:
                    heat.record_cache(attribute, "discrete", hit=True)
                return found or None
        bucket = index.buckets.get(value)
        if heat is not None:
            if cache is not None:
                heat.record_cache(attribute, "discrete", hit=False)
            heat.record_probe(
                attribute, "discrete", candidates=len(bucket) if bucket is not None else 0
            )
        if bucket is None:
            found = ()
        elif columnar:
            found = bucket.columns()
        elif cache is None:
            # Folded once and never stored: no pair list to build.
            return zip(bucket.slots, bucket.weights)
        else:
            found = list(zip(bucket.slots, bucket.weights))
        if cache is not None:
            cache.put_discrete(attribute, value, found)
        return found or None

    # ------------------------------------------------------------------
    # Top-k selection (Algorithm 2 lines 40-49, heapq replay)
    # ------------------------------------------------------------------
    def _select_columns(self, parts: List[Any], k: int) -> List[MatchResult]:
        """Select from the columnar fold's totals.

        Without budgets, only the totals at or above the k-th largest
        admissible total can end in the heap: until it holds k of them a
        lower total is always the one evicted, and from then on no lower
        total is admitted.  So :func:`numpy.partition` finds that k-th
        total and the heap replays only the survivors, in first-touch
        order — the same ``(score, sid)`` set as a full replay.
        """
        if not parts:
            return []
        touched = parts[0] if len(parts) == 1 else _np.concatenate(parts)
        totals = self._scratch.dense_acc[touched]
        # A NaN total (admissible only with include_nonpositive) defeats
        # both the threshold and the shortcut below: replay everything.
        if self.budget_tracker is not None or (
            self.include_nonpositive and _np.isnan(totals).any()
        ):
            return self._replay_columns(touched, totals, k)
        if not self.include_nonpositive:
            admissible = totals > 0.0
            touched = touched[admissible]
            totals = totals[admissible]
        excess = totals.size - k
        if excess > 0:
            threshold = _np.partition(totals, excess)[excess]
            survivors = totals >= threshold
            touched = touched[survivors]
            totals = totals[survivors]
            if totals.size > k:
                # Ties at the threshold: the heap decides which stay.
                return self._replay_columns(touched, totals, k)
        # At most k admissible totals: a replay would keep them all.
        # Presorting by score leaves sort_results only the sid ties.
        descending = _np.argsort(totals)[::-1]
        sid_of = self._sid_of
        return sort_results(
            [
                MatchResult(sid_of[slot], total)
                for slot, total in zip(
                    touched[descending].tolist(), totals[descending].tolist()
                )
            ]
        )

    def _replay_columns(self, touched: Any, totals: Any, k: int) -> List[MatchResult]:
        """:meth:`_select_topk` over columnar totals, in first-touch order."""
        slots = touched.tolist()
        return self._select_topk(slots, dict(zip(slots, totals.tolist())), k)

    def _select_topk(self, order: List[int], acc: Any, k: int) -> List[MatchResult]:
        """Replay the touched slots in first-touch order through the heap.

        ``acc[slot]`` is a slot's total: the scalar route's accumulator
        list, or a dict of the columnar route's totals.
        """
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

        Same exactness contract as the reference engine: candidate
        indices are memoised by stab key, prorated ``(slot, subscore)``
        folds by the same key — and, as in the reference, any per-event
        weight override bypasses the memoised scored folds for that
        attribute and folds from the raw candidates instead.  The python
        backend memoises lists, the numpy backend arrays.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        cache = probe_cache if probe_cache is not None else ProbeCache()
        out: List[List[MatchResult]] = []
        for event in events:
            results = self._fold_and_select(event, k, cache)
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
        override: Optional[float] = None,
    ) -> List[Tuple[int, float]]:
        """One stab's ``(slot, subscore)`` pairs, computed scalar.

        Without ``override`` the pairs are cacheable per stab key; with
        one, the event's weight replaces every stored weight.
        """
        slots = index.slots
        weights = index.weights
        if not self.prorate:
            if override is None:
                return [(slots[i], weights[i]) for i in candidates]
            return [(slots[i], override) for i in candidates]
        los = index.los
        his = index.his
        constant = self._proration_constant(attribute)
        event_width = qhi - qlo + constant
        scored: List[Tuple[int, float]] = []
        for i in candidates:
            overlap = min(qhi, his[i]) - max(qlo, los[i]) + constant
            if event_width > 0:
                fraction = overlap / event_width
                if fraction > 1.0:
                    fraction = 1.0
            else:
                fraction = 1.0
            weight = weights[i] if override is None else override
            scored.append((slots[i], weight * fraction))
        return scored


def _discrete_values(constraint: Constraint) -> Tuple[Any, ...]:
    """The bucket keys one discrete constraint indexes under."""
    return tuple(constraint.value) if constraint.is_set else (constraint.value,)
