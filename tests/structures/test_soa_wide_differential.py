"""Differential fuzzing of wide indexes, where the numpy backend vectorises.

``test_soa_differential.py`` keeps its universes small (a few hundred
entries per attribute).  This module builds about 2,000 subscriptions,
so every ranged attribute holds well over 512 entries and the numpy
backend's vectorised fold really runs — a guard below counts the probes
that read the float64 mirrors and fails the test if there were none.

The universe mixes int and float endpoints, one attribute whose
endpoints lie beyond 2**53 (not float64-exact), queries with a bound
that is not float64-exact, discrete and set constraints, negative
weights and small integer weights (so ties straddle k).  Events carry intervals, points, UNKNOWN markers and
per-event weight overrides.  The reference engine, the pure-python array
engine and (when importable) the numpy backend must return ``==``
MatchResult lists with equal sid lists, across SUM, MAX and MIN, both
proration settings, budgets and ``match_batch`` with a shared probe
cache.
"""

import random

import pytest

from repro.bench.harness import make_matcher
from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.attributes import UNKNOWN, Interval
from repro.core.budget import BudgetWindowSpec
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.probecache import ProbeCache
from repro.core.scoring import MAX, MIN, SUM
from repro.core.subscriptions import Constraint, Subscription
from repro.structures.soa import SoARangedIndex, numpy_available

N_SUBSCRIPTIONS = 2000
BIG = 2**60
STATES = ("IN", "OH", "KY", "MI", "WI")


def _weight(rng):
    roll = rng.random()
    if roll < 0.45:
        return rng.randint(1, 3)  # integer weights: many exact ties
    if roll < 0.6:
        return rng.randint(-2, 0)
    return round(rng.uniform(-1.5, 4.0), 3)


def _subscription(rng, sid):
    constraints = []
    if rng.random() < 0.85:
        low = rng.randint(0, 1000)
        constraints.append(Constraint("a", Interval(low, low + rng.randint(0, 300)), _weight(rng)))
    if rng.random() < 0.75:
        low = round(rng.uniform(0.0, 100.0), 2)
        high = low + round(rng.uniform(0.0, 40.0), 2)
        constraints.append(Constraint("b", Interval(low, high), _weight(rng)))
    if rng.random() < 0.4:
        low = BIG + rng.randint(0, 4000)
        constraints.append(Constraint("big", Interval(low, low + rng.randint(0, 900)), _weight(rng)))
    if rng.random() < 0.5:
        constraints.append(Constraint("state", rng.choice(STATES), _weight(rng)))
    if rng.random() < 0.3:
        tags = frozenset(rng.sample(("x", "y", "z", "w"), rng.randint(1, 3)))
        constraints.append(Constraint("tag", tags, _weight(rng)))
    if not constraints:
        constraints.append(Constraint("a", Interval(0, 1000), 1.0))
    return Subscription(sid, constraints)


def _event(rng):
    values = {}
    roll = rng.random()
    if roll < 0.1:
        values["a"] = UNKNOWN
    elif roll < 0.4:
        values["a"] = rng.randint(400, 1200)
    elif roll < 0.9:
        low = rng.randint(300, 1100)
        values["a"] = Interval(low, low + rng.randint(0, 200))
    elif roll < 0.95:
        # A query bound that is not float64-exact on an exact attribute.
        values["a"] = Interval(rng.randint(300, 1100), 2**53 + 1)
    if rng.random() < 0.8:
        low = round(rng.uniform(30.0, 140.0), 2)
        values["b"] = low if rng.random() < 0.3 else Interval(low, low + round(rng.uniform(0.0, 30.0), 2))
    if rng.random() < 0.35:
        low = BIG + rng.randint(0, 4500)
        values["big"] = Interval(low, low + rng.randint(0, 600))
    if rng.random() < 0.6:
        values["state"] = UNKNOWN if rng.random() < 0.1 else rng.choice(STATES)
    if rng.random() < 0.4:
        values["tag"] = rng.choice(("x", "y", "z", "w"))
    if not values:
        values["a"] = 700
    weights = None
    if rng.random() < 0.25:
        weights = {
            name: rng.choice([0.0, 2, round(rng.uniform(-1.0, 3.0), 3)])
            for name in rng.sample(sorted(values), rng.randint(1, len(values)))
        }
    return Event(values, weights=weights)


def _universe(seed):
    rng = random.Random(seed)
    return [_subscription(rng, f"s{i:04d}") for i in range(N_SUBSCRIPTIONS)]


def _events(seed, count):
    rng = random.Random(seed)
    return [_event(rng) for _ in range(count)]


def _engines(**config):
    engines = [
        FXTMMatcher(**config),
        ArrayTopKMatcher(backend="python", **config),
    ]
    if numpy_available():
        engines.append(ArrayTopKMatcher(backend="numpy", **config))
    return engines


def _load(engines, subscriptions):
    for engine in engines:
        for subscription in subscriptions:
            engine.add_subscription(subscription)
        engine.ensure_built()


def _assert_identical(per_engine, context):
    reference = per_engine[0]
    for candidate in per_engine[1:]:
        assert candidate == reference, context
        assert [r.sid for r in candidate] == [r.sid for r in reference], context
        assert [r.score for r in candidate] == [r.score for r in reference], context


class _MirrorProbeCounter:
    """Counts ranged probes that read float64 mirrors of a wide index."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = SoARangedIndex.ensure_view

        def counting(index, want_numpy=False):
            view = original(index, want_numpy)
            if want_numpy and view[4] is not None and len(index) >= 512:
                self.count += 1
            return view

        monkeypatch.setattr(SoARangedIndex, "ensure_view", counting)


@pytest.fixture(scope="module")
def universe():
    return _universe(2024)


def _guard_vectorised(counter):
    if numpy_available():
        assert counter.count > 0, "no probe took the vectorised route"


@pytest.mark.parametrize(
    "aggregation, prorate, include_nonpositive",
    [(SUM, False, False), (SUM, True, False), (MAX, True, False), (MIN, False, True)],
    ids=["sum", "sum-prorate", "max-prorate", "min-nonpositive"],
)
def test_wide_slices_match_differential(
    universe, monkeypatch, aggregation, prorate, include_nonpositive
):
    engines = _engines(
        prorate=prorate, aggregation=aggregation, include_nonpositive=include_nonpositive
    )
    _load(engines, universe)
    counter = _MirrorProbeCounter(monkeypatch)
    rng = random.Random(7)
    for trial, event in enumerate(_events(31, 25)):
        k = rng.choice([1, 2, 5, 17, 40, 60])
        per_engine = [engine.match(event, k) for engine in engines]
        _assert_identical(per_engine, (trial, event, k))
    _guard_vectorised(counter)


def test_wide_slices_ties_straddle_k(monkeypatch):
    """Integer weights without proration: k cuts through runs of ties."""
    rng = random.Random(5)
    subscriptions = []
    for i in range(N_SUBSCRIPTIONS):
        low = rng.randint(0, 1000)
        constraints = [Constraint("a", Interval(low, low + rng.randint(100, 500)), rng.randint(1, 3))]
        if rng.random() < 0.6:
            constraints.append(Constraint("state", rng.choice(STATES), rng.randint(1, 2)))
        subscriptions.append(Subscription(f"t{i:04d}", constraints))
    engines = _engines()
    _load(engines, subscriptions)
    counter = _MirrorProbeCounter(monkeypatch)
    straddled = 0
    for trial in range(40):
        event = Event({"a": rng.randint(500, 1000), "state": rng.choice(STATES)})
        k = rng.randint(1, 60)
        per_engine = [engine.match(event, k) for engine in engines]
        _assert_identical(per_engine, (trial, event, k))
        everything = engines[0].match(event, N_SUBSCRIPTIONS)
        if len(everything) > k and everything[k - 1].score == everything[k].score:
            straddled += 1
    assert straddled > 10  # the cut really falls inside runs of ties
    _guard_vectorised(counter)


def test_wide_slices_budgeted_match_differential(universe, monkeypatch):
    rng = random.Random(11)
    engines = [make_matcher("fx-tm", prorate=True, with_budget=True)]
    engines.append(make_matcher("fx-tm-array", prorate=True, with_budget=True, backend="python"))
    if numpy_available():
        engines.append(
            make_matcher("fx-tm-array", prorate=True, with_budget=True, backend="numpy")
        )
    budgeted = [
        Subscription(
            bare.sid,
            bare.constraints,
            budget=BudgetWindowSpec(budget=rng.uniform(1.0, 6.0), window_length=40),
        )
        for bare in universe
    ]
    _load(engines, budgeted)
    counter = _MirrorProbeCounter(monkeypatch)
    for trial, event in enumerate(_events(41, 30)):
        per_engine = [engine.match(event, 25) for engine in engines]
        _assert_identical(per_engine, (trial, event))
    _guard_vectorised(counter)


@pytest.mark.parametrize("prorate", [False, True])
def test_wide_slices_match_batch_cache_parity(universe, prorate):
    engines = _engines(prorate=prorate)
    _load(engines, universe)
    rng = random.Random(13)
    pool = _events(51, 12)
    batch = [rng.choice(pool) for _ in range(30)]
    # A weighted clone bypasses the memoised scored folds for its
    # overridden attribute but still hits the candidate memo.
    clone = batch[0]
    batch.append(
        Event(
            {name: clone.value_of(name) for name in clone.attributes},
            weights={clone.attributes[0]: 1.5},
        )
    )
    caches = [ProbeCache() for _ in engines]
    per_engine = [
        engine.match_batch(batch, k=30, probe_cache=cache)
        for engine, cache in zip(engines, caches)
    ]
    for results, cache in zip(per_engine[1:], caches[1:]):
        for index, (ours, theirs) in enumerate(zip(results, per_engine[0])):
            _assert_identical([theirs, ours], (prorate, index))
        assert len(results) == len(per_engine[0])
        assert (cache.hits, cache.misses) == (caches[0].hits, caches[0].misses)
    assert caches[0].hits > 0
    # The batch answers what the single-event loop answers.
    singles = [engines[-1].match(event, 30) for event in batch]
    assert singles == per_engine[-1]
