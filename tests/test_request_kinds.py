"""Every request kind works through every serving front.

One sample line per :class:`RequestKind` runs through
``LocalController.submit``, ``DistributedController.submit`` and the
CLI's ``serve`` loop.  Each must answer ok and fill the field that
belongs to its kind, so a front that drops or mishandles a kind fails
here by name.
"""

import io

import pytest

from repro.cli import serve
from repro.core.controller import LocalController, RequestKind
from repro.core.matcher import FXTMMatcher
from repro.core.stats import InstrumentedMatcher
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.controller import DistributedController
from repro.obs import MetricsRegistry, Tracer

#: Lines that run before each sample: one subscription, one traced match.
SETUP = ["ADD ad-1 age in [18, 24] : 2.0", "MATCH 1 age: [20 .. 22]"]

SAMPLES = {
    RequestKind.ADD: "ADD ad-2 age in [30, 50] : 1.0",
    RequestKind.CANCEL: "CANCEL ad-1",
    RequestKind.MATCH: "MATCH 5 age: [20 .. 22]",
    RequestKind.BATCH: "BATCH 5 age: [20 .. 22] ; age: [40 .. 45]",
    RequestKind.METRICS: "METRICS prom",
    RequestKind.TRACE: "TRACE text",
}

#: What ``serve`` writes for each sample (a prefix of its first line).
SERVE_LINES = {
    RequestKind.ADD: "ok ADD ad-2",
    RequestKind.CANCEL: "ok CANCEL ad-1",
    RequestKind.MATCH: "match [ad-1=",
    RequestKind.BATCH: "batch[0] [ad-1=",
    RequestKind.METRICS: "# HELP",
    RequestKind.TRACE: "match",
}


def local_controller():
    matcher = InstrumentedMatcher(FXTMMatcher(prorate=True))
    tracer = Tracer()
    matcher.tracer = tracer
    return LocalController(matcher, tracer=tracer)


def distributed_controller():
    system = DistributedTopKSystem(
        lambda: FXTMMatcher(prorate=True),
        node_count=3,
        registry=MetricsRegistry(),
        tracer=Tracer(),
    )
    return DistributedController(system)


def assert_kind_field_filled(kind, response, controller):
    """The response field (or follow-up state) that ``kind`` owns."""
    assert response.request.kind is kind
    if kind is RequestKind.ADD:
        follow_up = controller.submit("MATCH 5 age: [40 .. 45]")
        assert [result.sid for result in follow_up.results] == ["ad-2"]
    elif kind is RequestKind.CANCEL:
        assert controller.submit("MATCH 5 age: [20 .. 22]").results == []
    elif kind is RequestKind.MATCH:
        assert [result.sid for result in response.results] == ["ad-1"]
    elif kind is RequestKind.BATCH:
        sids = [[result.sid for result in results] for results in response.batch_results]
        assert sids == [["ad-1"], []]
    else:
        assert response.payload.strip()


def test_samples_cover_every_kind():
    assert set(SAMPLES) == set(RequestKind)
    assert set(SERVE_LINES) == set(RequestKind)


@pytest.mark.parametrize("kind", list(RequestKind), ids=lambda kind: kind.name)
@pytest.mark.parametrize(
    "build", [local_controller, distributed_controller], ids=["local", "distributed"]
)
def test_controller_submit_serves_kind(build, kind):
    controller = build()
    for line in SETUP:
        assert controller.submit(line).ok, line
    response = controller.submit(SAMPLES[kind])
    assert response.ok, response.error
    assert_kind_field_filled(kind, response, controller)


@pytest.mark.parametrize("kind", list(RequestKind), ids=lambda kind: kind.name)
def test_cli_serve_serves_kind(kind):
    out = io.StringIO()
    failures = serve(SETUP + [SAMPLES[kind]], local_controller(), out)
    assert failures == 0, out.getvalue()
    written = out.getvalue().splitlines()[len(SETUP):]
    assert written and written[0].startswith(SERVE_LINES[kind]), written
