"""Span recording: parentage, self times, counters, and clean restore."""

import math
import types

import pytest

from spans import SpanRecorder, Target, self_times, tracing


class _Toy:
    def outer(self, depth):
        total = 0
        for _ in range(3):
            total += self.inner(depth)
        return total

    def inner(self, depth):
        return sum(self.leaf() for _ in range(depth))

    def leaf(self):
        return sum(range(200))

    @staticmethod
    def helper(value):
        return value * 2


def _targets():
    return [
        Target(_Toy, "outer", "toy.outer"),
        Target(_Toy, "inner", "toy.inner"),
        Target(_Toy, "leaf", "toy.leaf", timed=False, tally=lambda result: result > 0),
        Target(_Toy, "helper", "toy.helper"),
    ]


def test_nested_self_times_sum_to_the_root():
    recorder = SpanRecorder()
    with tracing(recorder, _targets()):
        recorder.request_id = 7
        _Toy().outer(4)
    names = [span[0] for span in recorder.spans]
    assert names == ["toy.outer"] + ["toy.inner"] * 3
    root = recorder.spans[0]
    assert root[3] == -1
    assert all(span[3] == 0 and span[4] == 7 for span in recorder.spans[1:])
    selves = self_times(recorder.spans)
    assert all(own >= 0 for own in selves)
    assert math.isclose(sum(selves), root[2] - root[1], rel_tol=1e-9)


def test_counted_targets_only_count():
    recorder = SpanRecorder()
    with tracing(recorder, _targets()):
        _Toy().outer(4)
    assert recorder.counts["toy.leaf"] == 12
    assert recorder.counts["toy.leaf.tally"] == 12
    assert "toy.leaf" not in {span[0] for span in recorder.spans}


def test_originals_restored_even_after_an_error():
    originals = {name: _Toy.__dict__[name] for name in ("outer", "inner", "leaf", "helper")}
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracing(recorder, _targets()):
            assert _Toy.helper(3) == 6
            assert recorder.spans[-1][0] == "toy.helper"
            raise RuntimeError("boom")
    for name, original in originals.items():
        assert _Toy.__dict__[name] is original


def test_module_functions_are_patched_where_imported():
    module = types.ModuleType("fake")
    module.parse = lambda text: text.upper()
    original = module.parse
    recorder = SpanRecorder()
    with tracing(recorder, [Target(module, "parse", "fake.parse")]):
        assert module.parse("x") == "X"
    assert module.parse is original
    assert [span[0] for span in recorder.spans] == ["fake.parse"]


def test_inherited_methods_are_refused():
    class Child(_Toy):
        pass

    with pytest.raises(AttributeError):
        with tracing(SpanRecorder(), [Target(Child, "outer", "child.outer")]):
            pass
