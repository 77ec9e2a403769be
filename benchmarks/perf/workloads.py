"""The four seeded workloads of the perf benchmark.

Each workload turns a seed into two inputs the program receives as
controller request lines: the setup ``ADD`` lines that load the system,
and an endless, deterministic stream of request lines for the measured
phase.  The same seed always yields the same lines.  A workload also
says how to build the system under test and the ``naive`` oracle that
checks it; both are configured identically (schema, proration, budgets).

Why these four (the layer each one stresses is in README.md):

* ``table2-single`` — the paper's headline micro workload on the
  fastest single-node engine (SoA scan and numpy fold);
* ``yahoo-batch-skew`` — the only workload where the batch probe cache
  hits and discrete buckets carry the load;
* ``imdb-churn-budget`` — writes between reads, with Definition 4
  budgets applied to every candidate;
* ``table2-cluster`` — the simulated overlay: leaf dispatch and
  ``merge_topk`` over replicated placement.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, List, Optional

from repro.bench.harness import make_matcher
from repro.core.attributes import Schema
from repro.core.controller import LocalController
from repro.core.interfaces import TopKMatcher
from repro.core.parser import render_event, render_subscription
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.controller import DistributedController
from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig
from repro.workloads.imdb import IMDBWorkload, IMDBWorkloadConfig
from repro.workloads.yahoo import YahooWorkload, YahooWorkloadConfig

__all__ = ["Instance", "Workload", "WORKLOADS", "leaf_matchers", "ensure_built"]

#: Events generated per call of a generator's ``events``; each chunk is
#: its own seeded stream, so the request stream can grow without bound.
_EVENT_CHUNK = 256


@dataclass
class Instance:
    """One workload made concrete by a seed: its inputs and factories."""

    #: ``ADD`` lines that load the system before anything is measured.
    setup_lines: List[str]
    #: Builds the request stream; each call starts it afresh.
    requests: Callable[[], Iterator[str]]
    #: Builds a fresh, empty controller over the system under test.
    new_system: Callable[[], Any]
    #: Builds a fresh, empty controller over the ``naive`` oracle.
    new_oracle: Callable[[], LocalController]
    #: True when no request changes state that a later response reads
    #: (no writes, no budgets); the oracle may then check any request
    #: without replaying the ones before it.
    read_only: bool


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists and how to instantiate it."""

    name: str
    why: str
    #: Subscriptions loaded at full scale.
    n: int
    #: The seed used when none is given: the generator's own default.
    default_seed: int
    #: Measured requests whose responses the oracle checks.
    oracle_requests: int
    #: ``(seed, n) -> Instance``.
    build: Callable[[int, int], Instance]
    #: The system needs numpy; without it the run refuses to fall back.
    requires_numpy: bool = False

    def instance(self, seed: Optional[int] = None, n: Optional[int] = None) -> Instance:
        """Generate this workload's inputs for ``seed`` at ``n`` subscriptions."""
        return self.build(
            self.default_seed if seed is None else seed,
            self.n if n is None else n,
        )


def leaf_matchers(controller: Any) -> List[TopKMatcher]:
    """Every matcher behind a local or distributed controller."""
    system = getattr(controller, "system", None)
    if system is None:
        return [controller.matcher]
    return [node.matcher for node in system.nodes]


def ensure_built(controller: Any) -> None:
    """Finish each matcher's lazy index build, charging it to setup."""
    for matcher in leaf_matchers(controller):
        matcher.ensure_built()


def _sampler(generator: Any, config: Any, seed: int) -> Any:
    """A data generator calibrated at its default seed, sampling from ``seed``.

    The generators bisect their interval widths against a small seeded
    sample, so a per-seed calibration moves the widths by 8-14% and each
    seed would measure a different distribution.  Calibrating once and
    drawing the data with ``seed`` keeps every seed a sample of one
    workload.
    """
    workload = generator(config)
    workload.config = replace(config, seed=seed)
    return workload


def _add_line(subscription: Any, suffix: str = "") -> str:
    return f"ADD {subscription.sid} {render_subscription(subscription)}{suffix}"


def _events(workload: Any) -> Iterator[Any]:
    for stream in itertools.count():
        yield from workload.events(_EVENT_CHUNK, stream=stream)


def _local(algorithm: str, schema: Optional[Schema], **extra: Any) -> Callable[[], LocalController]:
    def build() -> LocalController:
        return LocalController(make_matcher(algorithm, schema=schema, prorate=True, **extra))

    return build


# ----------------------------------------------------------------------
# table2-single: Table 2 micro data on fx-tm-array with numpy
# ----------------------------------------------------------------------
def _table2_single(seed: int, n: int) -> Instance:
    workload = _sampler(MicroWorkload, MicroWorkloadConfig(n=n), seed)

    def requests() -> Iterator[str]:
        for event in _events(workload):
            yield f"MATCH 200 {render_event(event)}"

    return Instance(
        setup_lines=[_add_line(sub) for sub in workload.subscriptions()],
        requests=requests,
        new_system=_local("fx-tm-array", None, backend="numpy"),
        new_oracle=_local("naive", None),
        read_only=True,
    )


# ----------------------------------------------------------------------
# yahoo-batch-skew: skewed BATCH lines on the pure-python array engine
# ----------------------------------------------------------------------
_YAHOO_POOL = 64
_YAHOO_BATCH = 16


def _grammar_names(text: str) -> str:
    """Rename Yahoo's ``genre:<id>`` attributes to ``genre_<id>``.

    ``render_subscription`` emits the generator's names verbatim, and the
    request grammar rejects a ``:`` inside a name ("expected a constraint
    operator, got ':'").  No value the generator renders contains
    ``genre:``, so the textual rename touches names only.
    """
    return text.replace("genre:", "genre_")


def _yahoo_batch_skew(seed: int, n: int) -> Instance:
    workload = _sampler(YahooWorkload, YahooWorkloadConfig(n=n), seed)
    # 1/rank popularity: a few events dominate every batch, so the
    # per-batch probe cache sees repeated stab and bucket keys.  Each
    # batch draws from its own pool of fresh events; one pool for the
    # whole run would let its two or three hottest events set the cost.
    weights = [1.0 / rank for rank in range(1, _YAHOO_POOL + 1)]

    def requests() -> Iterator[str]:
        rng = random.Random(f"yahoo-batch-skew:{seed}:requests")
        for batch in itertools.count():
            pool = workload.events(_YAHOO_POOL, stream=batch)
            chosen = rng.choices(pool, weights=weights, k=_YAHOO_BATCH)
            yield "BATCH 100 " + " ; ".join(_grammar_names(render_event(e)) for e in chosen)

    schema = YahooWorkload.schema()
    return Instance(
        setup_lines=[_grammar_names(_add_line(sub)) for sub in workload.subscriptions()],
        requests=requests,
        new_system=_local("fx-tm-array", schema, backend="python"),
        new_oracle=_local("naive", schema),
        read_only=True,
    )


# ----------------------------------------------------------------------
# imdb-churn-budget: ADD/CANCEL between budgeted matches on fx-tm
# ----------------------------------------------------------------------
_BUDGET = " BUDGET 50 WINDOW 2000"


def _imdb_churn_budget(seed: int, n: int) -> Instance:
    workload = _sampler(IMDBWorkload, IMDBWorkloadConfig(n=n), seed)

    # Every block of five requests is ADD, CANCEL, then three MATCHes, so
    # exactly one match in three follows a write and rebuilds the flat
    # stab views.  With writes drawn at random that share drifts from run
    # to run, and the median match sits where the two latency modes meet
    # (its p50 varied by 25% over runs of one seed).
    def requests() -> Iterator[str]:
        rng = random.Random(f"imdb-churn-budget:{seed}:requests")
        live = list(range(n))
        next_sid = n
        events = _events(workload)
        while True:
            fresh = workload.subscriptions(1, sid_offset=next_sid)[0]
            next_sid += 1
            live.append(fresh.sid)
            yield _add_line(fresh, _BUDGET)
            index = rng.randrange(len(live))
            live[index], live[-1] = live[-1], live[index]
            yield f"CANCEL {live.pop()}"
            for _ in range(3):
                yield f"MATCH 100 {render_event(next(events))}"

    schema = IMDBWorkload.schema()
    return Instance(
        setup_lines=[_add_line(sub, _BUDGET) for sub in workload.subscriptions()],
        requests=requests,
        new_system=_local("fx-tm", schema, with_budget=True),
        new_oracle=_local("naive", schema, with_budget=True),
        read_only=False,
    )


# ----------------------------------------------------------------------
# table2-cluster: Table 2 micro data through the simulated overlay
# ----------------------------------------------------------------------
def _leaf() -> TopKMatcher:
    return make_matcher("fx-tm", prorate=True)


def _cluster() -> DistributedController:
    system = DistributedTopKSystem(_leaf, node_count=9, fanout=3, replication_factor=2)
    return DistributedController(system)


def _table2_cluster(seed: int, n: int) -> Instance:
    workload = _sampler(MicroWorkload, MicroWorkloadConfig(n=n), seed)

    def requests() -> Iterator[str]:
        for event in _events(workload):
            yield f"MATCH 100 {render_event(event)}"

    return Instance(
        setup_lines=[_add_line(sub) for sub in workload.subscriptions()],
        requests=requests,
        new_system=_cluster,
        new_oracle=_local("naive", None),
        read_only=True,
    )


#: Every workload by name, in the order the benchmark runs them.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "table2-single",
            "Table 2 micro data on fx-tm-array with numpy: the SoA scan and fold do the work",
            n=20_000,
            default_seed=MicroWorkloadConfig.seed,
            oracle_requests=20,
            build=_table2_single,
            requires_numpy=True,
        ),
        Workload(
            "yahoo-batch-skew",
            "skewed BATCH lines of Yahoo-like data: the only workload where the probe cache hits",
            n=10_000,
            default_seed=YahooWorkloadConfig.seed,
            oracle_requests=2,
            build=_yahoo_batch_skew,
        ),
        Workload(
            "imdb-churn-budget",
            "40% ADD/CANCEL between budgeted matches: writes invalidate the flat stab view",
            n=10_000,
            default_seed=IMDBWorkloadConfig.seed,
            oracle_requests=100,
            build=_imdb_churn_budget,
        ),
        Workload(
            "table2-cluster",
            "Table 2 data on 9 replicated fx-tm leaves: leaf dispatch and merge_topk",
            n=10_000,
            default_seed=MicroWorkloadConfig.seed,
            oracle_requests=20,
            build=_table2_cluster,
        ),
    )
}
