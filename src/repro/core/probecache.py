"""Per-batch memoisation of master-index probes.

Batched matching (``TopKMatcher.match_batch``) processes a list of
events in one pass.  Real workloads repeat attribute values heavily —
the same age bracket, the same handful of states — so consecutive
events stab the same interval trees with the same query interval and
hash the same discrete buckets.  Within one batch the master index is
immutable (subscription churn is excluded for the duration — the
thread-safe wrapper holds its lock across the whole batch), which makes
those probes pure functions of their key and therefore safe to memoise:

* interval-tree stabs are keyed by ``(attribute, lo, hi)``;
* discrete bucket lookups are keyed by ``(attribute, value)``.

The canonical cached value is the *raw* probe result (entries with
their stored weights): event weight overrides, proration, and budget
multipliers are applied per event after the lookup, so a cache hit
folds exactly the floats a fresh probe would have folded, in the same
order.  On top of that, the matcher memoises the *prorated fold* of a
ranged probe (``(sid, weight * fraction)`` pairs, or the array engine's
``(slots, subscores)`` columns) via
:meth:`get_scored` / :meth:`put_scored` — exact because the proration
fraction is a pure function of the cache key (the event interval) and
the stored entries, and it is only consulted when no per-event weight
override applies.  Scored entries additionally bake in one matcher's
proration configuration, so a cache must never be shared across
matchers.  A cache must also never outlive a batch — index mutations
between batches would make it stale.

``hits`` / ``misses`` counters feed the ``probe_cache.hit/miss`` trace
spans and the probe-cache hit-ratio metrics (docs/observability.md).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.structures.interval_tree import IntervalEntry

__all__ = ["ProbeCache"]


class ProbeCache:
    """Memo of index probes for one batch of events.

    Create one per ``match_batch`` call, or pass one in to observe its
    ``hits`` / ``misses`` after the batch.  Values stored via
    :meth:`put_ranged` / :meth:`put_discrete` are returned *by
    reference* — callers must not mutate them.
    """

    __slots__ = ("_ranged", "_discrete", "_scored", "_candidates", "hits", "misses")

    def __init__(self) -> None:
        self._ranged: Dict[Tuple[str, Any, Any], List[IntervalEntry]] = {}
        self._discrete: Dict[Tuple[str, Any], Any] = {}
        self._scored: Dict[Tuple[str, Any, Any], Any] = {}
        self._candidates: Dict[Tuple[str, Any, Any], Sequence[int]] = {}
        #: Probes answered from the cache.
        self.hits = 0
        #: Probes that had to touch the index (and were then stored).
        self.misses = 0

    def get_ranged(
        self, attribute: str, qlo: Any, qhi: Any
    ) -> Optional[List[IntervalEntry]]:
        """The memoised stab of ``attribute`` over ``[qlo, qhi]``, or None.

        Counts a hit when present, a miss otherwise (the caller is
        expected to probe the index and :meth:`put_ranged` the result).
        """
        entries = self._ranged.get((attribute, qlo, qhi))
        if entries is None:
            self.misses += 1
        else:
            self.hits += 1
        return entries

    def put_ranged(
        self, attribute: str, qlo: Any, qhi: Any, entries: List[IntervalEntry]
    ) -> None:
        """Store a stab result (empty lists included — misses are cached too)."""
        self._ranged[(attribute, qlo, qhi)] = entries

    def get_discrete(self, attribute: str, value: Any) -> Any:
        """The memoised bucket lookup, or None.

        FX-TM stores ``(sid, weight)`` pairs, the array engine
        ``(slot, weight)`` pairs or, on its columnar route, the bucket's
        ``(slots, weights)`` arrays (``()`` when the bucket is absent).
        """
        pairs = self._discrete.get((attribute, value))
        if pairs is None:
            self.misses += 1
        else:
            self.hits += 1
        return pairs

    def put_discrete(self, attribute: str, value: Any, pairs: Any) -> None:
        """Store a bucket lookup (an absent bucket is stored empty)."""
        self._discrete[(attribute, value)] = pairs

    def get_candidates(
        self, attribute: str, qlo: Any, qhi: Any
    ) -> Optional[Sequence[int]]:
        """The memoised candidate *indices* of an array-engine stab, or None.

        The structure-of-arrays engine's analogue of :meth:`get_ranged`:
        the cached value is the positions overlapping the query in that
        attribute's parallel arrays (a list, or an int64 array on the
        columnar route).  Counts toward ``hits`` / ``misses`` exactly as
        :meth:`get_ranged` does — each stab key is one index probe,
        whichever representation answers it.
        """
        found = self._candidates.get((attribute, qlo, qhi))
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def put_candidates(
        self, attribute: str, qlo: Any, qhi: Any, found: Sequence[int]
    ) -> None:
        """Store an array-engine stab (empty lists included)."""
        self._candidates[(attribute, qlo, qhi)] = found

    def get_scored(self, attribute: str, qlo: Any, qhi: Any) -> Any:
        """The memoised prorated fold of a ranged probe, or None.

        A derived-value memo layered over :meth:`get_ranged`: it does
        *not* count toward ``hits`` / ``misses``, which tally index
        probes only.
        """
        return self._scored.get((attribute, qlo, qhi))

    def put_scored(self, attribute: str, qlo: Any, qhi: Any, pairs: Any) -> None:
        """Store one stab key's prorated pairs (or ``(slots, subscores)`` columns)."""
        self._scored[(attribute, qlo, qhi)] = pairs

    @property
    def probes(self) -> int:
        """Total lookups answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"ProbeCache(ranged={len(self._ranged)}, "
            f"discrete={len(self._discrete)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
