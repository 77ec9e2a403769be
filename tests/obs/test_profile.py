"""The sampling profiler: deterministic attribution, lifecycle, export."""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs.profile import PHASE_OF_FRAME, SamplingProfiler


def stack(*frames):
    """Innermost-first ``(filename, function)`` pairs for sample_once."""
    return list(frames)


STAB_STACK = stack(
    ("src/repro/structures/interval_tree.py", "stab"),
    ("src/repro/core/matcher.py", "_build_scoremap"),
    ("src/repro/core/matcher.py", "_match_topk"),
)
SELECT_STACK = stack(
    ("src/repro/core/matcher.py", "_select_topk"),
    ("src/repro/core/matcher.py", "_match_topk"),
)
IDLE_STACK = stack(("/usr/lib/python3.11/threading.py", "wait"))


class TestDeterministicAttribution:
    def test_innermost_mapped_frame_wins(self):
        profiler = SamplingProfiler()
        assert profiler.sample_once(stacks=[STAB_STACK]) == 1
        # The stab frame is innermost: the sample is a probe, not a
        # scoremap build, even though _build_scoremap is on the stack.
        assert profiler.phase_samples == {"attribute.probe": 1}
        assert profiler.module_samples == {"repro.structures.interval_tree": 1}

    def test_phase_vocabulary_matches_tracer_spans(self):
        # Every mapped phase is a Tracer span name (or a distributed hop).
        phases = set(PHASE_OF_FRAME.values())
        assert "attribute.probe" in phases
        assert "master_index.lookup" in phases
        assert "candidates.score" in phases
        assert "topk.select" in phases
        assert "merge" in phases

    def test_unmapped_stack_lands_in_other(self):
        profiler = SamplingProfiler()
        profiler.sample_once(stacks=[IDLE_STACK])
        assert profiler.phase_samples == {"<other>": 1}
        assert profiler.module_samples == {"<other>": 1}

    def test_multiple_stacks_per_tick(self):
        profiler = SamplingProfiler()
        counted = profiler.sample_once(stacks=[STAB_STACK, SELECT_STACK, IDLE_STACK])
        assert counted == 3
        assert profiler.ticks == 1
        assert profiler.total_samples == 3
        assert profiler.phase_samples["attribute.probe"] == 1
        assert profiler.phase_samples["topk.select"] == 1

    def test_heat_scan_stats_attribute_to_the_probe_phase(self):
        profiler = SamplingProfiler()
        profiler.sample_once(
            stacks=[
                stack(
                    ("repro/structures/interval_tree.py", "skip_scan_stats"),
                    ("repro/structures/interval_tree.py", "scan_stats"),
                    ("repro/core/matcher.py", "_build_scoremap"),
                ),
                stack(
                    ("repro/structures/soa.py", "scan_stats"),
                    ("repro/core/array_matcher.py", "_fold_event"),
                ),
            ]
        )
        profiler.sample_once(
            stacks=[stack(("repro/core/array_matcher.py", "_fold_event"))]
        )
        assert profiler.phase_samples["attribute.probe"] == 2
        assert profiler.phase_samples["master_index.lookup"] == 1


class TestLifecycle:
    def test_disabled_profiler_has_no_thread(self):
        before = threading.active_count()
        profiler = SamplingProfiler()
        assert not profiler.running
        assert threading.active_count() == before

    def test_start_stop_round_trip(self):
        profiler = SamplingProfiler(interval=0.001)
        try:
            assert profiler.start() is profiler
            assert profiler.running
            # start() is idempotent: same thread, no second sampler.
            thread = profiler._thread
            profiler.start()
            assert profiler._thread is thread
        finally:
            profiler.stop()
        assert not profiler.running
        profiler.stop()  # idempotent too

    def test_background_sampler_collects_live_stacks(self):
        profiler = SamplingProfiler(interval=0.001)
        release = threading.Event()
        worker = threading.Thread(target=release.wait, daemon=True)
        worker.start()
        profiler.start()
        try:
            deadline = threading.Event()
            while profiler.ticks < 3:
                deadline.wait(0.005)
        finally:
            profiler.stop()
            release.set()
            worker.join()
        assert profiler.total_samples >= profiler.ticks
        # The blocked worker shows up somewhere (phase or module bucket).
        assert sum(profiler.phase_samples.values()) == profiler.total_samples

    def test_reset_zeroes_counters(self):
        profiler = SamplingProfiler()
        profiler.sample_once(stacks=[STAB_STACK])
        profiler.reset()
        assert profiler.total_samples == 0
        assert profiler.ticks == 0
        assert profiler.phase_samples == {}

    def test_interval_validation(self):
        with pytest.raises(ObservabilityError):
            SamplingProfiler(interval=0.0)
        with pytest.raises(ObservabilityError):
            SamplingProfiler(interval=-1.0)


class TestExport:
    def test_snapshot_shares_and_estimated_seconds(self):
        profiler = SamplingProfiler(interval=0.01)
        for _ in range(3):
            profiler.sample_once(stacks=[STAB_STACK])
        profiler.sample_once(stacks=[SELECT_STACK])
        document = profiler.snapshot()
        assert document["total_samples"] == 4
        assert document["estimated_seconds"] == pytest.approx(0.04)
        phases = {row["name"]: row for row in document["phases"]}
        assert phases["attribute.probe"]["samples"] == 3
        assert phases["attribute.probe"]["share"] == pytest.approx(0.75)
        assert phases["attribute.probe"]["estimated_seconds"] == pytest.approx(0.03)
        # Hottest first.
        assert document["phases"][0]["name"] == "attribute.probe"

    def test_snapshot_empty(self):
        document = SamplingProfiler().snapshot()
        assert document["total_samples"] == 0
        assert document["phases"] == []

    def test_render_flame_text(self):
        profiler = SamplingProfiler(interval=0.01)
        for _ in range(3):
            profiler.sample_once(stacks=[STAB_STACK])
        text = profiler.render()
        assert "3 samples" in text
        assert "attribute.probe" in text
        assert "100.0%" in text
        assert "repro.structures.interval_tree" in text

    def test_render_empty(self):
        assert SamplingProfiler().render() == "(no samples collected)"


class TestMatchRootAttribution:
    """The span vocabulary covers the whole-match root spans (FX501)."""

    def test_match_root_spans_are_attributable(self):
        assert PHASE_OF_FRAME[("matcher", "_match_topk")] == "fxtm.match"
        assert PHASE_OF_FRAME[("matcher", "match_batch")] == "fxtm.match_batch"
        assert PHASE_OF_FRAME[("stats", "match")] == "match"
        assert PHASE_OF_FRAME[("stats", "match_batch")] == "match_batch"

    def test_root_frames_do_not_shadow_inner_phases(self):
        profiler = SamplingProfiler()
        stack = [
            ("/x/repro/structures/interval_tree.py", "stab"),
            ("/x/repro/core/matcher.py", "_match_topk"),
            ("/x/repro/core/stats.py", "match"),
        ]
        profiler.sample_once(stacks=[stack])
        # Innermost frame still wins: the sample is a probe.
        assert profiler.phase_samples == {"attribute.probe": 1}

    def test_sample_in_match_loop_attributes_to_root(self):
        profiler = SamplingProfiler()
        stack = [("/x/repro/core/matcher.py", "_match_topk")]
        profiler.sample_once(stacks=[stack])
        assert profiler.phase_samples == {"fxtm.match": 1}
