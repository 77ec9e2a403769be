"""Structure-of-arrays substrates for the array-native matching engine.

The pointer-based structures (AVL interval tree, red-black tree sets)
pay per-node Python-object overhead on every probe: attribute loads,
tuple construction, dict hashing.  This module stores each attribute's
constraints in *parallel arrays* instead, so the hot loops become
contiguous index arithmetic:

* :class:`SoARangedIndex` — parallel ``lo`` / ``hi`` / ``weight`` /
  ``slot`` arrays kept sorted by the interval tree's exact
  ``(low, high, sid)`` key, plus the same per-64-entry ``max_high``
  skip table the flattened stab view uses.  A stab is a
  :func:`bisect.bisect_right` over the lows (cutting off every entry
  starting beyond ``qhi``) followed by a contiguous block scan that
  skips whole blocks whose ``max_high`` lies below ``qlo``.  Because
  the arrays are sorted by the same key the tree orders its in-order
  walk by, a scan emits candidates in *exactly* the tree's stab order —
  the precondition for bitwise-identical score folds.

* :class:`SoADiscreteIndex` — hash map from value to a
  :class:`SoADiscreteBucket` of parallel ``sid`` / ``weight`` / ``slot``
  arrays kept sorted by sid, mirroring ``IdTreeSet.get_all`` order
  (plus, for the matcher's columnar route, lazily built int64/float64
  columns).

``slot`` is the dense integer the matcher interns each sid to
(:mod:`repro.core.array_matcher`); carrying it next to the weight lets
the fold accumulate into a flat slot-indexed list without hashing sids.

The read-optimised view (skip table, plus either the packed scan mirror
for the matcher's scalar route or the numpy mirrors for its columnar
route) is published as one atomic tuple stamped with the build epoch — the same
write-once-per-epoch discipline as ``IntervalTree``'s flattened view,
so concurrent readers under a read lock never observe a torn rebuild.

The numpy mirrors are only built when every endpoint round-trips
``float64`` exactly (``float(v) == v``); otherwise candidate selection
silently stays on the pure-python scan, which compares the original
Python values and is therefore always exact.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidIntervalError
from repro.structures.interval_tree import skip_scan_stats

try:  # Optional acceleration only; the pure-python path is mandatory.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

# REPRO_NO_NUMPY simulates a numpy-less install (the CI matrix runs the
# differential suite both ways without needing two environments).
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None  # type: ignore[assignment]

__all__ = [
    "SoADiscreteBucket",
    "SoADiscreteIndex",
    "SoARangedIndex",
    "numpy_available",
]

#: Entries per skip block; identical to the flattened stab view's block
#: size so the two engines skip the same work on the same workloads, and
#: so :func:`skip_scan_stats` reads this skip table correctly.
_BLOCK = 64


def numpy_available() -> bool:
    """Whether the optional numpy backend can be used in this process."""
    return _np is not None


#: The atomic read view: (epoch, numpy_built, block_max, np_los, np_his,
#: np_weights, np_slots, packed).  ``numpy_built`` records whether the
#: numpy mirrors were attempted for this epoch (they stay ``None`` when
#: numpy is unavailable or the endpoints are not float64-exact); the
#: numpy members are always ``None`` on the pure-python path.  ``packed``
#: is the row-major mirror ``[(lo, hi, weight, slot), ...]`` the scalar
#: scan-and-fold iterates — one indexed load plus a tuple unpack per
#: candidate instead of four list indexings.  Only a pure-python view
#: builds it; it is ``None`` in a numpy view, whose readers never scan
#: row by row.
_RangedView = Tuple[
    int, bool, List[float], Any, Any, Any, Any,
    Optional[List[Tuple[float, float, float, int]]],
]


class SoARangedIndex:
    """One ranged attribute's constraints in structure-of-arrays form.

    >>> index = SoARangedIndex()
    >>> index.insert(0, 10, "s1", 2.0, slot=0)
    >>> index.insert(5, 20, "s2", 1.0, slot=1)
    >>> index.candidates(7, 7)
    [0, 1]
    """

    __slots__ = ("los", "his", "weights", "slots", "_keys", "_epoch", "_view")

    def __init__(self) -> None:
        #: Parallel arrays sorted by the tree's ``(low, high, sid)`` key.
        self.los: List[float] = []
        self.his: List[float] = []
        self.weights: List[float] = []
        self.slots: List[int] = []
        # The sort keys themselves, kept for O(log n) position lookup.
        self._keys: List[Tuple[float, float, Any]] = []
        self._epoch = 0
        self._view: Optional[_RangedView] = None

    def __len__(self) -> int:
        return len(self.los)

    def insert(self, low: float, high: float, sid: Any, weight: float, slot: int) -> None:
        """Insert ``[low, high]`` for ``sid`` (interned to ``slot``).

        ``O(log n)`` to locate plus ``O(n)`` array shifting.  Raises
        :class:`~repro.errors.InvalidIntervalError` when ``low > high``
        and :class:`KeyError` on a duplicate ``(low, high, sid)`` — the
        interval tree's exact contracts.
        """
        if low > high:
            raise InvalidIntervalError(low, high)
        key = (low, high, sid)
        position = bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            raise KeyError(f"duplicate interval entry: {key!r}")
        self._keys.insert(position, key)
        self.los.insert(position, low)
        self.his.insert(position, high)
        self.weights.insert(position, weight)
        self.slots.insert(position, slot)
        self._epoch += 1

    def delete(self, low: float, high: float, sid: Any) -> None:
        """Remove the entry ``(low, high, sid)``.

        Raises :class:`KeyError` when absent.
        """
        key = (low, high, sid)
        position = bisect_left(self._keys, key)
        if position >= len(self._keys) or self._keys[position] != key:
            raise KeyError(f"no interval entry: {key!r}")
        del self._keys[position]
        del self.los[position]
        del self.his[position]
        del self.weights[position]
        del self.slots[position]
        self._epoch += 1

    # ------------------------------------------------------------------
    # The read view
    # ------------------------------------------------------------------
    def ensure_view(self, want_numpy: bool = False) -> _RangedView:
        """Return the current read view, rebuilding it if stale; ``O(n)``.

        ``want_numpy`` picks the kind: the numpy mirrors, or the packed
        scan mirror.  A view of the other kind counts as stale.  The
        view is one atomic tuple stamped with the epoch it was built
        from — a concurrent reader either sees the previous complete
        view (and rebuilds its own, idempotently) or this complete one,
        never a half-written mix.
        """
        view = self._view
        if view is not None and view[0] == self._epoch and view[1] == want_numpy:
            return view
        epoch = self._epoch  # sampled before building, published inside
        his = self.his
        block_max = [
            max(his[start:start + _BLOCK]) for start in range(0, len(his), _BLOCK)
        ]
        np_los = np_his = np_weights = np_slots = packed = None
        if not want_numpy:
            packed = list(zip(self.los, his, self.weights, self.slots))
        elif _np is not None and self._float64_exact():
            np_los = _np.asarray(self.los, dtype=_np.float64)
            np_his = _np.asarray(his, dtype=_np.float64)
            np_weights = _np.asarray(self.weights, dtype=_np.float64)
            np_slots = _np.asarray(self.slots, dtype=_np.int64)
        built: _RangedView = (
            epoch, want_numpy, block_max, np_los, np_his, np_weights, np_slots, packed,
        )
        self._view = built
        return built

    def _float64_exact(self) -> bool:
        """Whether every endpoint round-trips float64 without rounding.

        Python int/float comparisons are exact, so ``float(v) == v``
        detects any endpoint (e.g. an int beyond 2**53) whose float64
        image would shift a candidate-selection comparison.
        """
        return all(float(v) == v for v in self.los) and all(
            float(v) == v for v in self.his
        )

    # ------------------------------------------------------------------
    # Stabbing
    # ------------------------------------------------------------------
    def cutoff(self, qhi: float) -> int:
        """Index of the first entry with ``low > qhi`` (scan upper bound)."""
        return bisect_right(self.los, qhi)

    def candidate_array(self, qlo: float, qhi: float) -> Any:
        """Indices of every entry overlapping ``[qlo, qhi]`` as an int64 array.

        One vectorised compare of the ``hi`` mirror up to the
        ``bisect_right`` cutoff, in the scalar scan's order.  Returns
        ``None`` when it cannot be exact: numpy is unavailable, some
        endpoint is not float64-exact (no mirrors), or a query bound is
        not (``float(q) != q``) — the caller then takes the scalar
        :meth:`candidates` route.
        """
        np_his = self.ensure_view(want_numpy=True)[4]
        if np_his is None or float(qlo) != qlo or float(qhi) != qhi:
            return None
        return (np_his[:bisect_right(self.los, qhi)] >= qlo).nonzero()[0]

    def candidates(self, qlo: float, qhi: float) -> List[int]:
        """Indices of every entry overlapping ``[qlo, qhi]``, in order.

        ``bisect_right`` over the lows, then a contiguous scan that skips
        whole 64-entry blocks whose ``max_high`` lies below ``qlo``.
        :meth:`candidate_array` is the vectorised twin.
        """
        stop = bisect_right(self.los, qhi)
        if not stop:
            return []
        his = self.his
        block_max = self._skip_table()
        out: List[int] = []
        append = out.append
        for start in range(0, stop, _BLOCK):
            if block_max[start // _BLOCK] < qlo:
                continue
            for index in range(start, min(start + _BLOCK, stop)):
                if his[index] >= qlo:
                    append(index)
        return out

    def scan_stats(self, qlo: float, qhi: float) -> Tuple[int, int, int]:
        """Scan accounting of :meth:`candidates` for the heat monitor.

        Returns ``(scanned, blocks_skipped, blocks_total)`` from the skip
        table and the cutoff alone (:func:`skip_scan_stats`): the counts
        describe the block-skip scan even when the numpy backend answered
        the probe with a vectorised compare.
        """
        stop = bisect_right(self.los, qhi)
        if not stop:
            return 0, 0, 0
        return skip_scan_stats(self._skip_table(), stop, qlo)

    def _skip_table(self) -> List[float]:
        """The current view's ``max_high`` skip table, whichever kind it is.

        Both kinds carry it, so a scalar scan over a numpy-backed index
        reuses the numpy view instead of building a pure-python one.
        """
        view = self._view
        if view is None or view[0] != self._epoch:
            view = self.ensure_view()
        return view[2]


class SoADiscreteBucket:
    """One discrete value's matching constraints, sorted by sid."""

    __slots__ = ("sids", "weights", "slots", "_columns")

    def __init__(self) -> None:
        self.sids: List[Any] = []
        self.weights: List[float] = []
        self.slots: List[int] = []
        # (int64 slots, float64 weights), built on first use after a write.
        self._columns: Optional[Tuple[Any, Any]] = None

    def __len__(self) -> int:
        return len(self.sids)

    def add(self, sid: Any, weight: float, slot: int) -> None:
        """Insert ``sid``; raises :class:`KeyError` when already present."""
        position = bisect_left(self.sids, sid)
        if position < len(self.sids) and self.sids[position] == sid:
            raise KeyError(f"sid already present: {sid!r}")
        self.sids.insert(position, sid)
        self.weights.insert(position, weight)
        self.slots.insert(position, slot)
        self._columns = None

    def remove(self, sid: Any) -> None:
        """Remove ``sid``; raises :class:`KeyError` when absent."""
        position = bisect_left(self.sids, sid)
        if position >= len(self.sids) or self.sids[position] != sid:
            raise KeyError(f"sid not present: {sid!r}")
        del self.sids[position]
        del self.weights[position]
        del self.slots[position]
        self._columns = None

    def columns(self) -> Tuple[Any, Any]:
        """The bucket as ``(slots, weights)`` numpy arrays, in sid order.

        Built once per write and published as one tuple, so concurrent
        readers either rebuild it idempotently or share it.  Requires
        numpy.
        """
        columns = self._columns
        if columns is None:
            columns = (
                _np.asarray(self.slots, dtype=_np.int64),
                _np.asarray(self.weights, dtype=_np.float64),
            )
            self._columns = columns
        return columns


class SoADiscreteIndex:
    """Hash map of value -> :class:`SoADiscreteBucket` for one attribute.

    The sid-sorted parallel arrays reproduce ``IdTreeSet.get_all``'s
    retrieval order, so a bucket scan folds weights in exactly the order
    the reference engine does.
    """

    __slots__ = ("buckets", "_size")

    def __init__(self) -> None:
        self.buckets: Dict[Any, SoADiscreteBucket] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, values: Tuple[Any, ...], sid: Any, weight: float, slot: int) -> None:
        """Index ``sid`` under every value (one entry per set member)."""
        for value in values:
            bucket = self.buckets.get(value)
            if bucket is None:
                bucket = SoADiscreteBucket()
                self.buckets[value] = bucket
            bucket.add(sid, weight, slot)
        self._size += 1

    def delete(self, values: Tuple[Any, ...], sid: Any) -> None:
        """Remove ``sid`` from every value's bucket."""
        for value in values:
            bucket = self.buckets[value]
            bucket.remove(sid)
            if not len(bucket):
                del self.buckets[value]
        self._size -= 1
