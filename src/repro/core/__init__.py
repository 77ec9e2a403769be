"""The paper's model and the FX-TM algorithm (paper sections 3 and 4)."""

from repro.core.attributes import UNKNOWN, AttributeKind, Interval, Schema
from repro.core.codec import (
    CodecError,
    dumps_event,
    dumps_subscription,
    loads_event,
    loads_subscription,
)
from repro.core.concurrent import ReadWriteLock, ThreadSafeMatcher
from repro.core.controller import LocalController, Request, RequestKind, Response
from repro.core.explain import ConstraintExplanation, MatchExplanation, explain, explain_match
from repro.core.parser import (
    ParseError,
    parse_event,
    parse_subscription,
    render_event,
    render_subscription,
)
from repro.core.pricing import DemandBasedPricer, PricedExchange, PricingError
from repro.core.snapshot import load_matcher, restore_into, save_matcher
from repro.core.stats import InstrumentedMatcher, MatcherStats, RunningStats
from repro.core.budget import (
    BudgetTracker,
    BudgetWindowSpec,
    BudgetWindowState,
    LogicalClock,
    PacingCurve,
    WallClock,
)
from repro.core.events import Event
from repro.core.interfaces import TopKMatcher
from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.matcher import FXTMMatcher
from repro.core.results import MatchResult
from repro.core.scoring import MAX, MIN, SUM, Aggregation, prorate_fraction, score_subscription
from repro.core.subscriptions import Constraint, Subscription

__all__ = [
    "UNKNOWN",
    "Aggregation",
    "ArrayTopKMatcher",
    "AttributeKind",
    "BudgetTracker",
    "BudgetWindowSpec",
    "BudgetWindowState",
    "CodecError",
    "Constraint",
    "ConstraintExplanation",
    "DemandBasedPricer",
    "Event",
    "FXTMMatcher",
    "InstrumentedMatcher",
    "MatchExplanation",
    "MatcherStats",
    "PricedExchange",
    "PricingError",
    "ReadWriteLock",
    "RunningStats",
    "ThreadSafeMatcher",
    "dumps_event",
    "dumps_subscription",
    "explain",
    "explain_match",
    "load_matcher",
    "loads_event",
    "loads_subscription",
    "render_event",
    "render_subscription",
    "restore_into",
    "save_matcher",
    "Interval",
    "LocalController",
    "LogicalClock",
    "MAX",
    "MIN",
    "MatchResult",
    "PacingCurve",
    "ParseError",
    "Request",
    "RequestKind",
    "Response",
    "SUM",
    "Schema",
    "Subscription",
    "TopKMatcher",
    "WallClock",
    "parse_event",
    "parse_subscription",
    "prorate_fraction",
    "score_subscription",
]
