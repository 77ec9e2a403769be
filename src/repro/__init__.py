"""repro — reproduction of "Fast, Expressive Top-k Matching" (Middleware '14).

The public API re-exports the model types and the FX-TM matcher::

    from repro import FXTMMatcher, Subscription, Constraint, Event, Interval

    matcher = FXTMMatcher(prorate=True)
    matcher.add_subscription(Subscription("ad-1", [
        Constraint("age", Interval(18, 24), weight=2.0),
        Constraint("state", "Indiana", weight=1.0),
    ]))
    top = matcher.match(Event({"age": Interval(20, 30), "state": "Indiana"}), k=10)

Subpackages:

* :mod:`repro.core` — model and the FX-TM algorithm (paper sections 3–4).
* :mod:`repro.structures` — interval trees, red-black tree sets (Table 1).
* :mod:`repro.baselines` — Fagin, augmented Fagin, BE* tree, naive oracle.
* :mod:`repro.distributed` — LOOM-style aggregation overlay simulation.
* :mod:`repro.workloads` — micro-benchmark / IMDB-like / Yahoo!-like data.
* :mod:`repro.bench` — the experiment harness regenerating every figure.
"""

from repro.core import (
    MAX,
    MIN,
    SUM,
    UNKNOWN,
    Aggregation,
    AttributeKind,
    BudgetTracker,
    BudgetWindowSpec,
    CodecError,
    Constraint,
    DemandBasedPricer,
    Event,
    ArrayTopKMatcher,
    FXTMMatcher,
    InstrumentedMatcher,
    Interval,
    LocalController,
    LogicalClock,
    MatchExplanation,
    MatchResult,
    PacingCurve,
    ParseError,
    PricedExchange,
    PricingError,
    RunningStats,
    Schema,
    Subscription,
    ThreadSafeMatcher,
    TopKMatcher,
    WallClock,
    dumps_event,
    dumps_subscription,
    explain,
    load_matcher,
    loads_event,
    loads_subscription,
    parse_event,
    parse_subscription,
    render_event,
    render_subscription,
    restore_into,
    save_matcher,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Aggregation",
    "AttributeKind",
    "BudgetTracker",
    "BudgetWindowSpec",
    "CodecError",
    "Constraint",
    "DemandBasedPricer",
    "Event",
    "ArrayTopKMatcher",
    "FXTMMatcher",
    "InstrumentedMatcher",
    "Interval",
    "LocalController",
    "LogicalClock",
    "MAX",
    "MIN",
    "MatchExplanation",
    "MatchResult",
    "PacingCurve",
    "ParseError",
    "PricedExchange",
    "PricingError",
    "ReproError",
    "RunningStats",
    "SUM",
    "Schema",
    "Subscription",
    "ThreadSafeMatcher",
    "TopKMatcher",
    "UNKNOWN",
    "WallClock",
    "__version__",
    "dumps_event",
    "dumps_subscription",
    "explain",
    "load_matcher",
    "loads_event",
    "loads_subscription",
    "parse_event",
    "parse_subscription",
    "render_event",
    "render_subscription",
    "restore_into",
    "save_matcher",
]
