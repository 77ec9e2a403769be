"""A dynamic interval tree (paper Table 1, "Interval Trees" row).

FX-TM stores one interval tree per ranged attribute; each tree holds the
interval constraints of every subscription with a constraint on that
attribute, annotated with the subscription id and weight (paper Algorithm 1
line 9: ``tree-insert(root, [v, v'], w, sid)``).

The paper cites Arge & Vitter's external-memory interval tree with
``O(log n)`` insert/delete and ``O(log n + s)`` stabbing output.  In main
memory the standard equivalent is a height-balanced search tree keyed on
the low endpoint and augmented with the maximum high endpoint of each
subtree (CLRS chapter 14.3).  That gives ``O(log n)`` insert/delete and
output-sensitive overlap enumeration — ``O(s log n)`` worst case,
``O(log n + s)`` in the common case where overlapping intervals cluster —
which is the bound that matters for the paper's empirical claims.

This implementation uses an AVL tree (recursive insert/delete naturally
re-establishes the ``max_high`` augmentation on unwind).  Entries are
``(low, high, sid, weight)``; duplicates of the same interval by different
subscriptions are allowed because the search key is ``(low, high, sid)``.

Intervals are closed on both ends: ``[low, high]`` overlaps ``[qlo, qhi]``
iff ``low <= qhi and high >= qlo``.  Single values are degenerate intervals
``[v, v]``, matching the paper's encoding of relational predicates.

Stabbing queries answer from a *flattened* read-optimised view rather
than walking tree pointers: a single array of node references sorted by
``(low, high, sid)`` plus a per-block ``max_high`` skip table.  A
:func:`bisect.bisect_right` over the sorted lows cuts off every entry
starting beyond ``qhi``; blocks whose ``max_high`` lies below ``qlo``
are skipped whole, preserving the tree walk's output sensitivity while
replacing recursive node-chasing with contiguous array scans.  The view
is built lazily on first stab and invalidated by a mutation epoch that
every :meth:`insert` / :meth:`delete` / :meth:`clear` advances — the AVL
tree stays the mutable source of truth, the array is a cache of it.

The view is published as a single ``(epoch, ordered, block_max)`` tuple
written in one assignment, so a concurrent reader can never pair a
stale array with a fresh epoch stamp: whichever tuple it loads carries
the epoch it was built at, and the staleness check compares that
embedded epoch.  (Publishing the arrays and the epoch as two separate
fields had a read-side race: a reader that loaded the old arrays, lost
the CPU while another reader rebuilt and stamped the new epoch, then
resumed its staleness check would trust the stale arrays.)

The view stores *references to the existing tree nodes*, never copies of
their payloads, so its retained cost is one pointer slot per entry plus
the skip table.  That keeps FX-TM's storage within the paper's Figure
5(a) claim (linear in N, on par with Fagin) instead of mirroring every
endpoint into parallel value arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidIntervalError

__all__ = ["IntervalTree", "IntervalEntry", "skip_scan_stats"]

#: An entry as returned from queries: (low, high, sid, weight).
IntervalEntry = Tuple[float, float, Any, float]

#: Entries per skip block of the flattened stab view.  Small enough that
#: a block whose ``max_high`` passes the filter wastes little scanning,
#: large enough that the skip table stays tiny next to the entry arrays.
_FLAT_BLOCK = 64


class _Node:
    __slots__ = ("low", "high", "sid", "weight", "left", "right", "height", "max_high")

    def __init__(self, low: float, high: float, sid: Any, weight: float) -> None:
        self.low = low
        self.high = high
        self.sid = sid
        self.weight = weight
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1
        self.max_high = high

    def key(self) -> Tuple[float, float, Any]:
        return (self.low, self.high, self.sid)


#: Bisect key for the flattened stab view (sorted by low endpoint).
_node_low: Callable[[_Node], float] = attrgetter("low")


def skip_scan_stats(
    block_max: Sequence[float], cutoff: int, qlo: float
) -> Tuple[int, int, int]:
    """What a skip-table scan of entries ``[0, cutoff)`` for ``qlo`` costs.

    Returns ``(scanned, blocks_skipped, blocks_total)``: the entries the
    block scan examines, the ``_FLAT_BLOCK``-entry blocks whose
    ``max_high`` lies below ``qlo`` (skipped whole), and the blocks in
    range at all.  Shared by the interval tree's flattened view and
    :class:`~repro.structures.soa.SoARangedIndex`, whose skip tables have
    the same layout, so both engines report the same counts for the same
    probe — whichever backend produced the candidates.
    """
    blocks_total = (cutoff + _FLAT_BLOCK - 1) // _FLAT_BLOCK
    scanned = 0
    blocks_skipped = 0
    for block in range(blocks_total):
        if block_max[block] < qlo:
            blocks_skipped += 1
        else:
            scanned += min(_FLAT_BLOCK, cutoff - block * _FLAT_BLOCK)
    return scanned, blocks_skipped, blocks_total


def _height(node: Optional[_Node]) -> int:
    return node.height if node is not None else 0


def _max_high(node: Optional[_Node]) -> float:
    return node.max_high if node is not None else float("-inf")


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))
    node.max_high = max(node.high, _max_high(node.left), _max_high(node.right))


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _balance(node: _Node) -> _Node:
    _update(node)
    bf = _height(node.left) - _height(node.right)
    if bf > 1:
        assert node.left is not None
        if _height(node.left.left) < _height(node.left.right):
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if bf < -1:
        assert node.right is not None
        if _height(node.right.right) < _height(node.right.left):
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class IntervalTree:
    """A dynamic set of weighted, id-tagged intervals with overlap queries.

    >>> tree = IntervalTree()
    >>> tree.insert(1, 5, "s1", 0.5)
    >>> tree.insert(4, 9, "s2", -0.2)
    >>> sorted(sid for _, _, sid, _ in tree.stab(5, 5))
    ['s1', 's2']
    >>> tree.delete(1, 5, "s1")
    >>> [sid for _, _, sid, _ in tree.stab(5, 5)]
    ['s2']
    """

    __slots__ = ("_root", "_size", "_epoch", "_flat")

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._size = 0
        #: Mutation counter; advancing it invalidates the flattened view.
        self._epoch = 0
        #: Flattened stab view, published atomically as one tuple:
        #: (build epoch, key-sorted node references, block max_high).
        self._flat: Optional[Tuple[int, List[_Node], List[float]]] = None

    @classmethod
    def from_entries(cls, entries: List[IntervalEntry]) -> "IntervalTree":
        """Bulk-build a perfectly balanced tree in ``O(n log n)``.

        ``entries`` are ``(low, high, sid, weight)`` tuples; duplicates of
        the same ``(low, high, sid)`` key raise :class:`KeyError`, invalid
        intervals raise :class:`~repro.errors.InvalidIntervalError` —
        the same contracts as repeated :meth:`insert`, but with the sort
        dominating instead of n individual rebalances.  The result is
        indistinguishable from incremental construction to every query.
        """
        for low, high, _sid, _weight in entries:
            if low > high:
                raise InvalidIntervalError(low, high)
        ordered = sorted(entries, key=lambda e: (e[0], e[1], e[2]))
        for previous, current in zip(ordered, ordered[1:]):
            if previous[:3] == current[:3]:
                raise KeyError(f"duplicate interval entry: {current[:3]!r}")
        tree = cls()
        tree._root = cls._build_balanced(ordered, 0, len(ordered))
        tree._size = len(ordered)
        # Install the flattened stab view now (one O(n) walk) so the
        # build cost is charged to load time, not to the first stab.
        tree._build_flat()
        return tree

    @staticmethod
    def _build_balanced(
        ordered: List[IntervalEntry], start: int, stop: int
    ) -> Optional[_Node]:
        if start >= stop:
            return None
        middle = (start + stop) // 2
        low, high, sid, weight = ordered[middle]
        node = _Node(low, high, sid, weight)
        node.left = IntervalTree._build_balanced(ordered, start, middle)
        node.right = IntervalTree._build_balanced(ordered, middle + 1, stop)
        _update(node)
        return node

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, low: float, high: float, sid: Any, weight: float = 0.0) -> None:
        """Insert interval ``[low, high]`` for subscription ``sid``.

        ``O(log n)``.  Raises :class:`InvalidIntervalError` when
        ``low > high`` and :class:`KeyError` when the same
        ``(low, high, sid)`` triple is already stored.
        """
        if low > high:
            raise InvalidIntervalError(low, high)
        self._root = self._insert(self._root, low, high, sid, weight)
        self._size += 1
        self._epoch += 1

    def _insert(
        self, node: Optional[_Node], low: float, high: float, sid: Any, weight: float
    ) -> _Node:
        if node is None:
            return _Node(low, high, sid, weight)
        key = (low, high, sid)
        node_key = node.key()
        if key < node_key:
            node.left = self._insert(node.left, low, high, sid, weight)
        elif node_key < key:
            node.right = self._insert(node.right, low, high, sid, weight)
        else:
            raise KeyError(f"duplicate interval entry: {key!r}")
        return _balance(node)

    def delete(self, low: float, high: float, sid: Any) -> None:
        """Remove the entry ``(low, high, sid)``; ``O(log n)``.

        Raises :class:`KeyError` when the entry is absent.
        """
        self._root = self._delete(self._root, (low, high, sid))
        self._size -= 1
        self._epoch += 1

    def _delete(self, node: Optional[_Node], key: Tuple[float, float, Any]) -> Optional[_Node]:
        if node is None:
            raise KeyError(f"interval entry not found: {key!r}")
        node_key = node.key()
        if key < node_key:
            node.left = self._delete(node.left, key)
        elif node_key < key:
            node.right = self._delete(node.right, key)
        else:
            if node.left is None:
                return node.right
            if node.right is None:
                return node.left
            # Two children: replace this node's payload with the in-order
            # successor's, then remove the successor from the right subtree.
            # The recursive removal rebalances and re-augments every node on
            # the path back up.
            holder: List[_Node] = []
            node.right = self._pop_min(node.right, holder)
            succ = holder[0]
            node.low, node.high = succ.low, succ.high
            node.sid, node.weight = succ.sid, succ.weight
        return _balance(node)

    def _pop_min(self, node: _Node, holder: List[_Node]) -> Optional[_Node]:
        """Detach the minimum node of this subtree, appending it to ``holder``.

        Rebalances (and refreshes augmentation of) every node on the path.
        """
        if node.left is None:
            holder.append(node)
            return node.right
        node.left = self._pop_min(node.left, holder)
        return _balance(node)

    def clear(self) -> None:
        """Remove every entry."""
        self._root = None
        self._size = 0
        self._epoch += 1
        self._flat = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _build_flat(self) -> Tuple[int, List[_Node], List[float]]:
        """(Re)build the flattened stab view from the tree; ``O(n)``.

        An in-order walk yields the nodes already in ``(low, high, sid)``
        order; the view retains only references to them (plus the block
        skip table), not copies of their payloads.

        Safe under concurrent read-side stabs (ThreadSafeMatcher holds
        mutations out while readers run): the finished view is published
        in a single assignment with its build epoch *inside* the tuple,
        so the write is all-or-nothing per epoch — racing rebuilds of
        the same epoch are idempotent and each reader answers from
        whichever complete tuple it loaded.
        """
        # Sample the epoch *before* walking: if a mutation could ever
        # interleave with the walk, the published view would self-report
        # stale (and be rebuilt) instead of masquerading as fresh.
        epoch = self._epoch
        ordered: List[_Node] = []
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            ordered.append(node)
            node = node.right
        block_max: List[float] = [
            max(entry.high for entry in ordered[start : start + _FLAT_BLOCK])
            for start in range(0, len(ordered), _FLAT_BLOCK)
        ]
        flat = (epoch, ordered, block_max)
        self._flat = flat
        return flat

    def ensure_flat(self) -> None:
        """Build the flattened stab view now if absent or stale.

        A warmup hook: the benchmark harness (and any latency-sensitive
        deployment) calls this after loading so the one-time array build
        is charged to load time rather than to the first stab.
        """
        flat = self._flat
        if self._root is not None and (flat is None or flat[0] != self._epoch):
            self._build_flat()

    def stab(self, qlo: float, qhi: float) -> List[IntervalEntry]:
        """Return all entries overlapping ``[qlo, qhi]``, sorted by key.

        This is the paper's ``get-matching-intervals``.  Answers come from
        the flattened view (see the module docstring): ``bisect_right``
        over the sorted lows discards every entry starting beyond ``qhi``,
        and blocks whose ``max_high`` lies below ``qlo`` are skipped
        without scanning — the same output sensitivity as the tree walk,
        minus the per-node Python overhead.  The view is rebuilt here when
        a mutation has advanced the epoch since it was last built.

        Raises :class:`InvalidIntervalError` when ``qlo > qhi``.
        """
        if qlo > qhi:
            raise InvalidIntervalError(qlo, qhi)
        out: List[IntervalEntry] = []
        if self._root is None:
            return out
        # Load the published view ONCE; its embedded epoch travels with
        # the arrays, so a stale tuple can never pass the check below on
        # the strength of a concurrent rebuild's fresh stamp.
        flat = self._flat
        if flat is None or flat[0] != self._epoch:
            flat = self._build_flat()
        _build_epoch, ordered, block_max = flat
        cutoff = bisect_right(ordered, qhi, key=_node_low)
        for start in range(0, cutoff, _FLAT_BLOCK):
            if block_max[start // _FLAT_BLOCK] < qlo:
                continue  # nothing in this block reaches the query
            for node in ordered[start : min(start + _FLAT_BLOCK, cutoff)]:
                if node.high >= qlo:
                    out.append((node.low, node.high, node.sid, node.weight))
        return out

    def scan_stats(self, qlo: float, qhi: float) -> Tuple[int, int, int]:
        """Scan accounting of :meth:`stab` for the heat monitor.

        Returns ``(scanned, blocks_skipped, blocks_total)`` for the same
        query (see :func:`skip_scan_stats`), read off the skip table and
        the ``bisect_right`` cutoff without touching an entry, so the
        stab itself carries no accounting arithmetic.
        """
        if qlo > qhi:
            raise InvalidIntervalError(qlo, qhi)
        if self._root is None:
            return 0, 0, 0
        flat = self._flat
        if flat is None or flat[0] != self._epoch:
            flat = self._build_flat()
        _build_epoch, ordered, block_max = flat
        return skip_scan_stats(block_max, bisect_right(ordered, qhi, key=_node_low), qlo)

    def stab_point(self, value: float) -> List[IntervalEntry]:
        """Return all entries containing the point ``value``."""
        return self.stab(value, value)

    def items(self) -> Iterator[IntervalEntry]:
        """Yield every entry in ``(low, high, sid)`` order."""
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield (node.low, node.high, node.sid, node.weight)
            node = node.right

    # ------------------------------------------------------------------
    # Invariant checking (used by the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert AVL balance, key order, and augmentation correctness."""

        def walk(node: Optional[_Node]) -> Tuple[int, float]:
            if node is None:
                return 0, float("-inf")
            left_h, left_mh = walk(node.left)
            right_h, right_mh = walk(node.right)
            assert abs(left_h - right_h) <= 1, "AVL balance violated"
            height = 1 + max(left_h, right_h)
            assert node.height == height, "stale height"
            max_high = max(node.high, left_mh, right_mh)
            assert node.max_high == max_high, "stale max_high augmentation"
            if node.left is not None:
                assert node.left.key() < node.key(), "BST order violated (left)"
            if node.right is not None:
                assert node.key() < node.right.key(), "BST order violated (right)"
            return height, max_high

        walk(self._root)
        count = sum(1 for _ in self.items())
        assert count == self._size, f"size mismatch: {count} != {self._size}"
