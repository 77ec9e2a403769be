"""Ablation studies for FX-TM's design choices (DESIGN.md section 5).

Three variants isolate the two data-structure decisions the complexity
analysis rests on, plus the BE* leaf-capacity knob:

* :class:`FXTMLinearIndexMatcher` — replaces the per-attribute interval
  trees with flat lists scanned linearly, removing the ``log N`` retrieval
  term (Theorem 3's ``M log N``) while keeping everything else identical;
* :class:`FXTMFullSortMatcher` — replaces the bounded top-k set with
  a full sort of the score map, turning the ``S log k`` phase into
  ``S log S`` (the cost the paper attributes to Fagin-style approaches in
  section 2.3);
* :func:`ablation_betree_leaf_capacity` — sweeps BE*'s leaf size.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    FigureResult,
    Series,
    load_subscriptions,
    measure_matching,
)
from repro.bench.scale import events_per_point, scaled
from repro.baselines.betree import BEStarTreeMatcher
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher, _DiscreteAttributeIndex, _RangedAttributeIndex
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult, sort_results
from repro.core.subscriptions import Constraint
from repro.workloads.defaults import GENERATED_N
from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig

__all__ = [
    "FXTMLinearIndexMatcher",
    "FXTMFullSortMatcher",
    "ablation_index_structure",
    "ablation_topk_structure",
    "ablation_betree_leaf_capacity",
]


class _LinearAttributeIndex(_RangedAttributeIndex):
    """Flat list of (low, high, sid, weight); linear-scan retrieval.

    Subclasses the stock ranged index so FX-TM's hot loop dispatches to it
    unchanged; ``self.tree`` points back at the index itself, whose
    :meth:`stab` scans the flat list.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple[float, float, Any, float]] = []
        self.tree = self  # the hot loop calls structure.tree.stab(...)

    def insert(self, constraint: Constraint, sid: Any) -> None:
        interval = constraint.interval()
        self.entries.append((interval.low, interval.high, sid, constraint.weight))

    def delete(self, constraint: Constraint, sid: Any) -> None:
        interval = constraint.interval()
        self.entries.remove((interval.low, interval.high, sid, constraint.weight))

    def stab(self, qlo: float, qhi: float) -> List[Tuple[float, float, Any, float]]:
        return [e for e in self.entries if e[0] <= qhi and e[1] >= qlo]

    def __len__(self) -> int:
        return len(self.entries)


class FXTMLinearIndexMatcher(FXTMMatcher):
    """FX-TM with linear-scan attribute lists instead of interval trees.

    ``O(M N)`` retrieval per match instead of ``O(M log N + S)``; the gap
    versus stock FX-TM quantifies the interval tree's contribution,
    growing with N and shrinking as selectivity approaches 1 (where
    ``S -> N`` and the tree must enumerate everything anyway).
    """

    name = "fx-tm/linear-index"

    def _index_subscription(self, subscription) -> None:
        sid = subscription.sid
        for constraint in subscription.constraints:
            kind = self._resolve_kind(constraint)
            structure = self._master_index.get(constraint.attribute)
            if structure is None:
                if kind.is_ranged:
                    structure = _LinearAttributeIndex()
                else:
                    structure = _DiscreteAttributeIndex()
                self._master_index[constraint.attribute] = structure
            structure.insert(constraint, sid)



class FXTMFullSortMatcher(FXTMMatcher):
    """FX-TM with a full sort of the score map instead of BoundedTopK.

    ``O(S log S)`` in the result phase instead of ``O(S log k)`` — the
    difference the paper's output-sensitive bound buys.
    """

    name = "fx-tm/full-sort"

    def _match_topk(self, event: Event, k: int) -> List[MatchResult]:
        # Compute the same scoremap the stock algorithm would, but without
        # the bounded top-k set: ask for everything, sort, cut.
        full = super()._match_topk(event, len(self.subscriptions) or 1)
        return sort_results(full)[:k]

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Per-event loop so batched runs measure the full sort, not BoundedTopK.

        FX-TM's inherited batch path selects with BoundedTopK via
        ``_select_topk`` — exactly the machinery this ablation exists to
        remove — so inheriting it would make batched measurements of the
        variant silently measure the stock algorithm.  ``probe_cache`` is
        accepted for signature compatibility but unused: the per-event
        path probes the index directly.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return [self.match(event, k) for event in events]


def _sweep(
    result: FigureResult,
    variants: Dict[str, Any],
    n_values: Sequence[int],
    selectivity: float,
    k_percent: float,
    event_count: int,
) -> None:
    for n in n_values:
        workload = MicroWorkload(MicroWorkloadConfig(n=n, selectivity=selectivity))
        subscriptions = workload.subscriptions()
        events = workload.events(event_count)
        k = max(1, int(n * k_percent / 100.0))
        for label, factory in variants.items():
            matcher = factory()
            load_subscriptions(matcher, subscriptions)
            stats = measure_matching(matcher, events, k)
            result.series_by_label(label).add(float(n), stats.mean_ms, stats.std_ms)


def ablation_index_structure(
    n_values: Optional[Sequence[int]] = None,
    selectivity: float = 0.22,
    event_count: Optional[int] = None,
) -> FigureResult:
    """Interval tree vs linear scan inside FX-TM, over N."""
    base = scaled(GENERATED_N)
    n_values = n_values if n_values is not None else (base // 2, base, base * 2)
    event_count = event_count if event_count is not None else events_per_point()
    result = FigureResult(
        figure="ablation-index",
        title="FX-TM attribute index: interval tree vs linear scan",
        x_label="N",
        y_label="matching time (ms)",
    )
    result.series = [Series(label="interval-tree"), Series(label="linear-scan")]
    result.notes["selectivity"] = selectivity
    variants = {
        "interval-tree": lambda: FXTMMatcher(prorate=True),
        "linear-scan": lambda: FXTMLinearIndexMatcher(prorate=True),
    }
    _sweep(result, variants, n_values, selectivity, k_percent=1.0, event_count=event_count)
    return result


def ablation_topk_structure(
    n_values: Optional[Sequence[int]] = None,
    selectivity: float = 0.5,
    event_count: Optional[int] = None,
) -> FigureResult:
    """Bounded top-k set vs full sort for the top-k phase, over N.

    Uses a higher selectivity than the default so ``S`` is large enough
    for the ``S log S`` vs ``S log k`` separation to be visible.
    """
    base = scaled(GENERATED_N)
    n_values = n_values if n_values is not None else (base // 2, base, base * 2)
    event_count = event_count if event_count is not None else events_per_point()
    result = FigureResult(
        figure="ablation-topk",
        title="FX-TM result phase: bounded top-k vs full sort",
        x_label="N",
        y_label="matching time (ms)",
    )
    result.series = [Series(label="bounded-topk"), Series(label="full-sort")]
    result.notes["selectivity"] = selectivity
    variants = {
        "bounded-topk": lambda: FXTMMatcher(prorate=True),
        "full-sort": lambda: FXTMFullSortMatcher(prorate=True),
    }
    _sweep(result, variants, n_values, selectivity, k_percent=1.0, event_count=event_count)
    return result


def ablation_betree_leaf_capacity(
    capacities: Sequence[int] = (4, 16, 64, 256),
    n: Optional[int] = None,
    event_count: Optional[int] = None,
) -> FigureResult:
    """BE* leaf capacity versus matching time."""
    n = n if n is not None else scaled(GENERATED_N)
    event_count = event_count if event_count is not None else events_per_point()
    result = FigureResult(
        figure="ablation-betree-leaf",
        title="BE* leaf capacity vs matching time",
        x_label="leaf capacity",
        y_label="matching time (ms)",
    )
    result.series = [Series(label="be-star")]
    result.notes["N"] = n
    workload = MicroWorkload(MicroWorkloadConfig(n=n))
    subscriptions = workload.subscriptions()
    events = workload.events(event_count)
    k = max(1, n // 100)
    for capacity in capacities:
        matcher = BEStarTreeMatcher(prorate=True, leaf_capacity=capacity)
        load_subscriptions(matcher, subscriptions)
        stats = measure_matching(matcher, events, k)
        result.series_by_label("be-star").add(float(capacity), stats.mean_ms, stats.std_ms)
    return result
