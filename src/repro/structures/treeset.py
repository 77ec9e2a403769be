"""Tree sets used by FX-TM (paper Table 1, "Tree Set" row), and its top-k set.

Two tree-set flavours are provided, matching the two uses in the paper:

* :class:`IdTreeSet` — ordered on subscription ids.  Used as the values of
  the discrete-attribute hash map (paper section 4.2: "a tree set of
  matching subscriptions ... ordered on subscription ids sid for quick
  insertion and deletion, but retrieval returns a list of all items").

* :class:`ScoredTreeSet` — ordered on ``(score, sid)``: the paper's
  ``topscores`` result set (Algorithm 2), where ``treeset-remove-min`` and
  ``treeset-find-min`` maintain the running top-k.  Table 1 costing
  (:mod:`repro.bench.table1`) measures it.

* :class:`BoundedTopK` — the size-bounded ``topscores`` set of Algorithm 2
  lines 40–49: a candidate enters only if fewer than k results are held or
  its score beats the current minimum, which is then evicted.  It keeps a
  binary heap rather than a tree set: the same strict ``>`` admission rule
  evicts the same minimum at ``O(log k)`` per admission, without a
  red-black tree's node walks and fixups (see its docstring for why the
  two are exactly equal).

The tree sets' mutating operations are ``O(log n)``; ``get_all`` is
``O(n)``.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.structures.rbtree import RedBlackTree

__all__ = ["IdTreeSet", "ScoredTreeSet", "BoundedTopK"]


class IdTreeSet:
    """A set of ``sid -> payload`` entries ordered by subscription id.

    Subscription ids must be mutually comparable (all ints, or all strings).

    >>> ts = IdTreeSet()
    >>> ts.add("s2", payload=0.5)
    >>> ts.add("s1", payload=1.5)
    >>> [sid for sid, _ in ts.get_all()]
    ['s1', 's2']
    """

    __slots__ = ("_tree",)

    def __init__(self) -> None:
        self._tree = RedBlackTree()

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def __contains__(self, sid: Any) -> bool:
        return sid in self._tree

    def add(self, sid: Any, payload: Any = None) -> None:
        """Insert ``sid`` with an optional payload; ``O(log n)``.

        Raises :class:`KeyError` if ``sid`` is already present.
        """
        self._tree.insert(sid, payload)

    def remove(self, sid: Any) -> Any:
        """Remove ``sid`` and return its payload; ``O(log n)``.

        Raises :class:`KeyError` when absent.
        """
        return self._tree.delete(sid)

    def get(self, sid: Any, default: Any = None) -> Any:
        """Return the payload stored under ``sid`` or ``default``."""
        return self._tree.get(sid, default)

    def get_all(self) -> List[Tuple[Any, Any]]:
        """Return every ``(sid, payload)`` pair in id order; ``O(n)``.

        This is the paper's ``treeset-get-all`` used during discrete
        attribute retrieval.
        """
        return list(self._tree.items())

    def __iter__(self) -> Iterator[Any]:
        return iter(self._tree)


class ScoredTreeSet:
    """A set of scored subscription ids ordered by ``(score, sid)``.

    Supports the paper's ``treeset-add``, ``treeset-remove-min``,
    ``treeset-find-min`` and ``treeset-remove-id`` — the last backed by a
    side index from sid to score so removal by id stays ``O(log n)``.
    """

    __slots__ = ("_tree", "_score_by_sid")

    def __init__(self) -> None:
        self._tree = RedBlackTree()
        self._score_by_sid: Dict[Any, float] = {}

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def __contains__(self, sid: Any) -> bool:
        return sid in self._score_by_sid

    def add(self, sid: Any, score: float) -> None:
        """Insert ``sid`` with ``score``; ``O(log n)``.

        Raises :class:`KeyError` if ``sid`` is already present (update the
        score via :meth:`remove_id` + :meth:`add`).
        """
        if sid in self._score_by_sid:
            raise KeyError(f"sid already present: {sid!r}")
        self._tree.insert((score, sid), None)
        self._score_by_sid[sid] = score

    def score_of(self, sid: Any) -> float:
        """Return the score under which ``sid`` was inserted.

        Raises :class:`KeyError` when absent.
        """
        return self._score_by_sid[sid]

    def find_min(self) -> Tuple[Any, float]:
        """Return ``(sid, score)`` of the minimum entry; ``O(log n)``.

        Raises :class:`KeyError` when empty.
        """
        (score, sid), _ = self._tree.min_item()
        return sid, score

    def find_max(self) -> Tuple[Any, float]:
        """Return ``(sid, score)`` of the maximum entry; ``O(log n)``.

        Raises :class:`KeyError` when empty.
        """
        (score, sid), _ = self._tree.max_item()
        return sid, score

    def remove_min(self) -> Tuple[Any, float]:
        """Remove and return the minimum ``(sid, score)``; ``O(log n)``.

        Raises :class:`KeyError` when empty.
        """
        (score, sid), _ = self._tree.pop_min()
        del self._score_by_sid[sid]
        return sid, score

    def remove_id(self, sid: Any) -> float:
        """Remove ``sid`` and return its score; ``O(log n)``.

        Raises :class:`KeyError` when absent.
        """
        score = self._score_by_sid.pop(sid)
        self._tree.delete((score, sid))
        return score

    def get_all(self) -> List[Tuple[Any, float]]:
        """Return every ``(sid, score)`` in ascending score order; ``O(n)``."""
        return [(sid, score) for (score, sid), _ in self._tree.items()]

    def get_all_descending(self) -> List[Tuple[Any, float]]:
        """Return every ``(sid, score)`` in descending score order; ``O(n)``."""
        result = self.get_all()
        result.reverse()
        return result

    def __iter__(self) -> Iterator[Tuple[Any, float]]:
        return iter(self.get_all())


class BoundedTopK:
    """The ``topscores`` structure of Algorithm 2 (lines 40–49).

    Holds at most ``k`` scored entries.  :meth:`offer` implements the
    admission logic: the first ``k`` candidates are accepted outright;
    afterwards a candidate is accepted only if it beats the current
    minimum, which is evicted.  Ties with the current minimum are rejected,
    matching the paper's strict ``min < w`` comparison — Definition 3
    leaves tie handling to the implementation, and keeping the incumbent
    makes results stable.

    The entries live in a binary heap (:mod:`heapq`) of ``(score, sid)``
    tuples, so an admission costs ``O(log k)`` and a rejection ``O(1)``.
    It admits and evicts exactly what a :class:`ScoredTreeSet` driven by
    ``find_min`` / ``remove_min`` / ``add`` would:

    * ``heap[0]`` is the lexicographic ``(score, sid)`` minimum, which is
      what :meth:`ScoredTreeSet.find_min` returns (sids are unique, so
      the minimum is unique too);
    * admission is the same strict ``score > heap[0][0]``, so a tie with
      the minimum keeps the incumbent;
    * :func:`heapq.heapreplace` evicts exactly that minimum, the entry
      :meth:`ScoredTreeSet.remove_min` evicted;
    * :meth:`results_descending` sorts the ``(score, sid)`` tuples in
      reverse, the order of :meth:`ScoredTreeSet.get_all_descending`.

    Sids must therefore be mutually comparable, as the tree set's
    ``(score, sid)`` keys required.  A sid set beside the heap answers
    ``in`` in ``O(1)`` and keeps the tree set's duplicate contract:
    admitting a sid that is already held raises :class:`KeyError`.
    """

    __slots__ = ("_k", "_heap", "_sids")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        self._heap: List[Tuple[float, Any]] = []
        self._sids: Set[Any] = set()

    @property
    def k(self) -> int:
        """The maximum number of retained entries."""
        return self._k

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, sid: Any) -> bool:
        return sid in self._sids

    def offer(self, sid: Any, score: float) -> bool:
        """Offer a candidate; return ``True`` if it was admitted.

        ``O(log k)`` per admission and ``O(1)`` per rejection, giving the
        paper's ``O(S log k)`` bound over a match with ``S`` candidates.
        Raises :class:`KeyError`, leaving the set unchanged, when an
        admitted ``sid`` is already held.
        """
        heap = self._heap
        if len(heap) < self._k:
            sids = self._sids
            if sid in sids:
                raise KeyError(f"sid already present: {sid!r}")
            heappush(heap, (score, sid))
            sids.add(sid)
            return True
        if score > heap[0][0]:
            sids = self._sids
            if sid in sids:
                raise KeyError(f"sid already present: {sid!r}")
            sids.remove(heapreplace(heap, (score, sid))[1])
            sids.add(sid)
            return True
        return False

    def threshold(self) -> Optional[float]:
        """The score a new candidate must beat, or ``None`` if not full."""
        heap = self._heap
        if len(heap) < self._k:
            return None
        return heap[0][0]

    def results_descending(self) -> List[Tuple[Any, float]]:
        """Return the retained ``(sid, score)`` pairs, best first."""
        return [(sid, score) for score, sid in sorted(self._heap, reverse=True)]
