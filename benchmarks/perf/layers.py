"""Which functions the traced pass wraps, and the per-layer metrics.

Each metric below names the end-to-end metric it should move and the
workload where it should move it (README.md has the full table).  Times
are in microseconds.  ``*_per_req`` metrics cover the traced prefix of
the measured requests; ``*_per_call`` metrics cover every call of the
traced pass, setup included.  A function that a workload never reaches
reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import repro.core.controller as core_controller
import repro.distributed.cluster as cluster_module
import repro.distributed.controller as distributed_controller
from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.budget import BudgetTracker
from repro.core.interfaces import TopKMatcher
from repro.core.matcher import FXTMMatcher
from repro.core.probecache import ProbeCache
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.node import MatcherNode
from repro.structures.interval_tree import IntervalTree
from repro.structures.soa import SoARangedIndex
from repro.structures.treeset import BoundedTopK

from spans import Span, Target, self_times

__all__ = ["TARGETS", "PER_LAYER", "TracedRun", "layer_metrics", "percentile"]


def _hit(result: Any) -> int:
    """A ``ProbeCache.get_*`` result: ``None`` is a miss, anything else a hit."""
    return int(result is not None)


#: Every wrapped function, under the name its spans and counters carry.
TARGETS = (
    Target(core_controller.LocalController, "submit", "controller.submit"),
    Target(distributed_controller.DistributedController, "submit", "controller.submit"),
    Target(core_controller.LocalController, "parse_request", "controller.parse_request"),
    Target(core_controller, "parse_event", "parser.parse_event"),
    Target(distributed_controller, "parse_event", "parser.parse_event"),
    Target(core_controller, "parse_subscription", "parser.parse_subscription"),
    Target(distributed_controller, "parse_subscription", "parser.parse_subscription"),
    Target(TopKMatcher, "match", "matcher.match"),
    Target(FXTMMatcher, "match_batch", "matcher.match_batch"),
    Target(ArrayTopKMatcher, "match_batch", "matcher.match_batch"),
    Target(TopKMatcher, "add_subscription", "matcher.add_subscription"),
    Target(TopKMatcher, "cancel_subscription", "matcher.cancel_subscription"),
    Target(IntervalTree, "stab", "interval_tree.stab", tally=len),
    Target(IntervalTree, "insert", "interval_tree.insert"),
    Target(IntervalTree, "delete", "interval_tree.delete"),
    Target(SoARangedIndex, "ensure_view", "soa.ensure_view"),
    Target(SoARangedIndex, "insert", "soa.insert"),
    Target(BoundedTopK, "offer", "topk.offer", timed=False),
    Target(ProbeCache, "get_ranged", "probecache.get", timed=False, tally=_hit),
    Target(ProbeCache, "get_discrete", "probecache.get", timed=False, tally=_hit),
    Target(ProbeCache, "get_candidates", "probecache.get", timed=False, tally=_hit),
    Target(BudgetTracker, "record_match", "budget.record_match"),
    Target(DistributedTopKSystem, "match", "cluster.match"),
    Target(MatcherNode, "match_timed", "node.match_timed"),
    Target(cluster_module, "merge_topk", "merge.merge_topk"),
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # core.controller / core.parser -> match_p50_ms (yahoo, table2-single),
    # setup_s (table2-*), writes.p50_ms (imdb)
    ("controller.submit.self_us_per_req", "us/req", "lower"),
    ("controller.parse_request.us_per_req", "us/req", "lower"),
    ("parser.parse_event.us_per_req", "us/req", "lower"),
    ("parser.parse_subscription.us_per_call", "us/call", "lower"),
    # core.interfaces / core.matcher / core.array_matcher -> match_p50_ms
    # (table2-single, imdb), req_per_s (yahoo), writes.p50_ms (imdb),
    # peak_rss_mb (table2-single)
    ("matcher.match.self_us_per_req", "us/req", "lower"),
    ("matcher.match_batch.self_us_per_req", "us/req", "lower"),
    ("matcher.add_subscription.self_us_per_call", "us/call", "lower"),
    ("matcher.cancel_subscription.self_us_per_call", "us/call", "lower"),
    ("matcher.results_per_match", "results/match", "higher"),
    ("matcher.storage_bytes_per_sub", "B/sub", "lower"),
    # structures.interval_tree -> match_p90_ms (imdb), match_p50_ms (cluster),
    # writes.p50_ms (imdb)
    ("interval_tree.stab.calls_per_req", "calls/req", "lower"),
    ("interval_tree.stab.us_per_req", "us/req", "lower"),
    ("interval_tree.stab.p99_us", "us", "lower"),
    ("interval_tree.stab.entries_per_call", "entries/call", "lower"),
    ("interval_tree.insert.us_per_call", "us/call", "lower"),
    ("interval_tree.delete.us_per_call", "us/call", "lower"),
    # structures.soa -> match_p50_ms (table2-single), setup_s
    ("soa.ensure_view.us_per_req", "us/req", "lower"),
    ("soa.ensure_view.p99_us", "us", "lower"),
    ("soa.insert.us_per_call", "us/call", "lower"),
    # structures.treeset -> match_p50_ms (imdb, cluster)
    ("topk.offer.calls_per_match", "calls/match", "lower"),
    ("topk.yield", "fraction", "higher"),
    # core.probecache -> req_per_s (yahoo)
    ("probecache.hit_ratio", "fraction", "higher"),
    ("probecache.probes_per_event", "probes/event", "lower"),
    # ADD/CANCEL lines of the measured phase (imdb only) -> req_per_s (imdb)
    ("writes.p50_ms", "ms", "lower"),
    ("writes.p90_ms", "ms", "lower"),
    # core.budget -> match_p50_ms (imdb)
    ("budget.record_match.calls_per_req", "calls/req", "lower"),
    ("budget.record_match.us_per_req", "us/req", "lower"),
    # distributed.cluster / .node / .merge -> req_per_s, match_p50_ms (cluster)
    ("cluster.match.self_us_per_req", "us/req", "lower"),
    ("node.match_timed.us_per_req", "us/req", "lower"),
    ("node.match_timed.max_us_per_req", "us/req", "lower"),
    ("merge.merge_topk.calls_per_req", "calls/req", "lower"),
    ("merge.merge_topk.us_per_req", "us/req", "lower"),
    ("cluster.sim_total_ms_p50", "ms", "lower"),
    ("cluster.sim_aggregation_ms_p50", "ms", "lower"),
    ("cluster.coverage_min", "fraction", "higher"),
    # the tracing itself
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.attributed_frac", "fraction", "higher"),
)


@dataclass
class TracedRun:
    """What one run hands to :func:`layer_metrics`."""

    #: Every span of the traced pass; measured requests carry ids >= 0.
    spans: List[Span]
    #: Counters accumulated over the traced prefix only.
    counts: Mapping[str, int]
    #: Measured requests replayed under tracing.
    requests: int
    #: Events those requests matched (a BATCH line holds several).
    events: int
    #: Results those requests returned.
    results: int
    #: Wall seconds of each traced request, and of the same requests untraced.
    traced_seconds: List[float]
    untraced_seconds: List[float]
    #: Deep size of the loaded matchers divided by subscriptions.
    storage_bytes_per_sub: float
    #: Wall seconds of the untraced measured phase's write requests.
    write_seconds: List[float] = field(default_factory=list)
    #: ``DistributedMatchOutcome`` quantities of the untraced measured phase.
    sim_total_seconds: List[float] = field(default_factory=list)
    sim_aggregation_seconds: List[float] = field(default_factory=list)
    coverage: List[float] = field(default_factory=list)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def percentile(values: Sequence[float], percent: int) -> float:
    """The ``percent``-th percentile of ``values`` (inclusive method); 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def layer_metrics(run: TracedRun) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run, by name."""
    selves = self_times(run.spans)
    every: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    prefix: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    slowest_leaf: Dict[Any, float] = {}
    attributed = root = 0.0
    for (name, start, end, parent, request), own in zip(run.spans, selves):
        duration = end - start
        every[name].append((duration, own))
        if request is None or request < 0:
            continue
        prefix[name].append((duration, own))
        if parent < 0:
            root += duration
            attributed += duration - own
        if name == "node.match_timed":
            slowest_leaf[request] = max(slowest_leaf.get(request, 0.0), duration)

    requests = run.requests
    us = 1e6

    def per_req(name: str, own: bool = False) -> float:
        column = 1 if own else 0
        return sum(pair[column] for pair in prefix[name]) * us / requests

    def per_call(name: str, own: bool = False) -> float:
        column = 1 if own else 0
        calls = every[name]
        return sum(pair[column] for pair in calls) * us / len(calls) if calls else 0.0

    def calls_per_req(name: str) -> float:
        return len(prefix[name]) / requests

    def p99(name: str) -> float:
        return percentile([duration for duration, _own in prefix[name]], 99) * us

    counts = run.counts
    offers = counts.get("topk.offer", 0)
    probes = counts.get("probecache.get", 0)
    stabs = len(prefix["interval_tree.stab"])
    return {
        "controller.submit.self_us_per_req": per_req("controller.submit", own=True),
        "controller.parse_request.us_per_req": per_req("controller.parse_request"),
        "parser.parse_event.us_per_req": per_req("parser.parse_event"),
        "parser.parse_subscription.us_per_call": per_call("parser.parse_subscription"),
        "matcher.match.self_us_per_req": per_req("matcher.match", own=True),
        "matcher.match_batch.self_us_per_req": per_req("matcher.match_batch", own=True),
        "matcher.add_subscription.self_us_per_call": per_call("matcher.add_subscription", own=True),
        "matcher.cancel_subscription.self_us_per_call": per_call("matcher.cancel_subscription", own=True),
        "matcher.results_per_match": _ratio(run.results, run.events),
        "matcher.storage_bytes_per_sub": run.storage_bytes_per_sub,
        "interval_tree.stab.calls_per_req": calls_per_req("interval_tree.stab"),
        "interval_tree.stab.us_per_req": per_req("interval_tree.stab"),
        "interval_tree.stab.p99_us": p99("interval_tree.stab"),
        "interval_tree.stab.entries_per_call": _ratio(counts.get("interval_tree.stab.tally", 0), stabs),
        "interval_tree.insert.us_per_call": per_call("interval_tree.insert"),
        "interval_tree.delete.us_per_call": per_call("interval_tree.delete"),
        "soa.ensure_view.us_per_req": per_req("soa.ensure_view"),
        "soa.ensure_view.p99_us": p99("soa.ensure_view"),
        "soa.insert.us_per_call": per_call("soa.insert"),
        "topk.offer.calls_per_match": _ratio(offers, run.events),
        "topk.yield": _ratio(run.results, offers),
        "probecache.hit_ratio": _ratio(counts.get("probecache.get.tally", 0), probes),
        "probecache.probes_per_event": _ratio(probes, run.events),
        "writes.p50_ms": percentile(run.write_seconds, 50) * 1e3,
        "writes.p90_ms": percentile(run.write_seconds, 90) * 1e3,
        "budget.record_match.calls_per_req": calls_per_req("budget.record_match"),
        "budget.record_match.us_per_req": per_req("budget.record_match"),
        "cluster.match.self_us_per_req": per_req("cluster.match", own=True),
        "node.match_timed.us_per_req": per_req("node.match_timed"),
        "node.match_timed.max_us_per_req": sum(slowest_leaf.values()) * us / requests,
        "merge.merge_topk.calls_per_req": calls_per_req("merge.merge_topk"),
        "merge.merge_topk.us_per_req": per_req("merge.merge_topk"),
        "cluster.sim_total_ms_p50": percentile(run.sim_total_seconds, 50) * 1e3,
        "cluster.sim_aggregation_ms_p50": percentile(run.sim_aggregation_seconds, 50) * 1e3,
        # A single node reaches every subscription.
        "cluster.coverage_min": min(run.coverage, default=1.0),
        "trace.overhead_frac": _ratio(sum(run.traced_seconds), sum(run.untraced_seconds)) - 1.0,
        "trace.attributed_frac": _ratio(attributed, root),
    }
