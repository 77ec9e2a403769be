"""A dependency-free statistical profiler for the match pipeline.

Trace spans (:mod:`repro.obs.tracing`) answer "where did *this* match
spend its time"; the :class:`SamplingProfiler` answers the continuous
version — "where does the *process* spend its time" — without touching
the hot path at all.  A background daemon thread periodically snapshots
every thread's frame stack via :func:`sys._current_frames` and
attributes each sample twice:

* to a **pipeline phase** — the Tracer's span vocabulary
  (``master_index.lookup``, ``attribute.probe``, ``candidates.score``,
  ``topk.select``, the distributed hops) via an innermost-first frame
  table, so sampled profiles line up with traced ones;
* to a **module bucket** — the innermost ``repro`` module on the stack,
  which catches time spent outside the mapped phases.

Overhead discipline: a profiler that has not been started costs nothing
— no thread, no clock reads, no per-match bookkeeping anywhere in the
matchers (they never know the profiler exists).  A running profiler
costs one stack walk per ``interval`` seconds regardless of match rate.
The sampler paces itself with :meth:`threading.Event.wait` and counts
samples instead of reading wall clocks, so the module stays clean under
fxlint's determinism rules; estimated seconds are ``samples x
interval`` by construction.

Deterministic testing: :meth:`SamplingProfiler.sample_once` accepts
pre-built stacks (innermost-first ``(filename, function)`` pairs), so
attribution is testable tick by tick without threads or timing.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = ["SamplingProfiler", "PHASE_OF_FRAME"]

#: ``(module basename, function name) -> pipeline phase``.  Scanned
#: innermost-first per sampled stack; the first hit wins, so a sample
#: inside a stab attributes to ``attribute.probe`` even though the
#: scoremap builder is further up the stack.  The vocabulary is exactly
#: the Tracer's span names (docs/observability.md section 2).
PHASE_OF_FRAME: Dict[Tuple[str, str], str] = {
    # Reference engine (repro/core/matcher.py + structures).
    ("interval_tree", "stab"): "attribute.probe",
    ("interval_tree", "stab_point"): "attribute.probe",
    ("interval_tree", "scan_stats"): "attribute.probe",
    ("interval_tree", "skip_scan_stats"): "attribute.probe",
    ("soa", "candidates"): "attribute.probe",
    ("soa", "cutoff"): "attribute.probe",
    ("soa", "scan_stats"): "attribute.probe",
    ("matcher", "_fold_ranged"): "candidates.score",
    ("matcher", "_fold_scored"): "candidates.score",
    ("matcher", "_fold_discrete"): "candidates.score",
    ("matcher", "_scored_ranged"): "candidates.score",
    ("matcher", "_select_topk"): "topk.select",
    ("matcher", "_build_scoremap"): "master_index.lookup",
    # Array engine (repro/core/array_matcher.py).
    ("array_matcher", "_fold_ranged_python"): "candidates.score",
    ("array_matcher", "_fold_ranged_numpy"): "candidates.score",
    ("array_matcher", "_fold_pairs"): "candidates.score",
    ("array_matcher", "_fold_candidates_override"): "candidates.score",
    ("array_matcher", "_scored_candidates"): "candidates.score",
    ("array_matcher", "_select_topk"): "topk.select",
    ("array_matcher", "_fold_event"): "master_index.lookup",
    # Whole-match roots (repro/core/matcher.py + stats.py).  Innermost
    # frames above win, so these only label samples taken in the match
    # loop's own bookkeeping rather than inside a pipeline phase.
    ("matcher", "_match_topk"): "fxtm.match",
    ("matcher", "match_batch"): "fxtm.match_batch",
    ("stats", "match"): "match",
    ("stats", "match_batch"): "match_batch",
    # Distributed overlay (repro/distributed/).
    ("cluster", "_attempt_leaf"): "leaf.dispatch",
    ("cluster", "_aggregate"): "aggregate",
    ("merge", "merge_topk"): "merge",
    ("network", "hop"): "leaf.hop",
}

#: A sampled stack: ``(filename, function)`` pairs, innermost first.
StackFrames = Sequence[Tuple[str, str]]

#: Samples whose stack never enters ``repro`` code land here.
_OTHER = "<other>"


def _module_basename(filename: str) -> str:
    """``.../repro/structures/interval_tree.py`` -> ``interval_tree``."""
    slash = filename.replace("\\", "/").rfind("/")
    name = filename[slash + 1 :] if slash >= 0 else filename
    return name[:-3] if name.endswith(".py") else name


def _repro_module(filename: str) -> Optional[str]:
    """The dotted ``repro.*`` module path of a frame, or ``None``."""
    normalized = filename.replace("\\", "/")
    marker = normalized.rfind("/repro/")
    if marker < 0:
        return None
    tail = normalized[marker + 1 :]
    if tail.endswith(".py"):
        tail = tail[:-3]
    return tail.replace("/", ".")


class SamplingProfiler:
    """Background statistical profiler with phase and module attribution.

    >>> profiler = SamplingProfiler()
    >>> profiler.sample_once(stacks=[[("structures/interval_tree.py", "stab"),
    ...                               ("core/matcher.py", "_build_scoremap")]])
    1
    >>> profiler.phase_samples["attribute.probe"]
    1
    """

    def __init__(self, interval: float = 0.005) -> None:
        if interval <= 0:
            raise ObservabilityError(f"sample interval must be > 0, got {interval}")
        #: Seconds between samples; also the seconds-per-sample weight
        #: used by the renderers (the sampler never reads a clock).
        self.interval = interval
        #: Samples per pipeline phase (Tracer span names + ``<other>``).
        self.phase_samples: Dict[str, int] = {}
        #: Samples per innermost ``repro`` module (dotted path).
        self.module_samples: Dict[str, int] = {}
        #: Total stacks attributed (one per thread per tick).
        self.total_samples = 0
        #: Sampler ticks taken (one per wakeup, covering >= 1 stacks).
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the background sampling thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the background sampling thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampling-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background thread and wait for it to exit."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None

    def reset(self) -> None:
        """Zero every attribution counter (the thread keeps running)."""
        self.phase_samples = {}
        self.module_samples = {}
        self.total_samples = 0
        self.ticks = 0

    def _run(self) -> None:
        # Event.wait paces the loop without ever reading a wall clock;
        # a set() from stop() wakes it immediately.
        while not self._stop.wait(self.interval):
            self.sample_once()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_once(self, stacks: Optional[Iterable[StackFrames]] = None) -> int:
        """Attribute one tick's worth of stacks; returns stacks counted.

        Without ``stacks``, snapshots every *other* thread's live frames
        (the sampler never profiles itself).  With ``stacks`` — lists of
        ``(filename, function)`` pairs, innermost first — attribution is
        fully deterministic, which is how the tests drive it.
        """
        if stacks is None:
            stacks = self._live_stacks()
        counted = 0
        for frames in stacks:
            phase = _OTHER
            module: Optional[str] = None
            for filename, function in frames:
                if phase is _OTHER:
                    mapped = PHASE_OF_FRAME.get((_module_basename(filename), function))
                    if mapped is not None:
                        phase = mapped
                if module is None:
                    module = _repro_module(filename)
                if phase is not _OTHER and module is not None:
                    break
            bucket = module if module is not None else _OTHER
            self.phase_samples[phase] = self.phase_samples.get(phase, 0) + 1
            self.module_samples[bucket] = self.module_samples.get(bucket, 0) + 1
            counted += 1
        self.total_samples += counted
        self.ticks += 1
        return counted

    def _live_stacks(self) -> List[List[Tuple[str, str]]]:
        """Innermost-first frame stacks of every other live thread."""
        me = threading.get_ident()
        stacks: List[List[Tuple[str, str]]] = []
        for thread_id, frame in sys._current_frames().items():
            if thread_id == me:
                continue
            frames: List[Tuple[str, str]] = []
            current: Optional[Any] = frame
            while current is not None:
                code = current.f_code
                frames.append((code.co_filename, code.co_name))
                current = current.f_back
            stacks.append(frames)
        return stacks

    # ------------------------------------------------------------------
    # Export (same idioms as tracing.py: JSON dict + flame-style text)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary of the attribution counters."""
        total = self.total_samples

        def table(samples: Dict[str, int]) -> List[Dict[str, Any]]:
            ordered = sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))
            return [
                {
                    "name": name,
                    "samples": count,
                    "share": count / total if total else 0.0,
                    "estimated_seconds": count * self.interval,
                }
                for name, count in ordered
            ]

        return {
            "interval_seconds": self.interval,
            "running": self.running,
            "ticks": self.ticks,
            "total_samples": total,
            "estimated_seconds": total * self.interval,
            "phases": table(self.phase_samples),
            "modules": table(self.module_samples),
        }

    def render(self) -> str:
        """A flame-style text summary (phases, then module buckets)."""
        total = self.total_samples
        if total == 0:
            return "(no samples collected)"
        lines = [
            f"sampling profile: {total} samples @ {self.interval * 1e3:.1f}ms"
            f" (~{total * self.interval:.2f}s attributed)"
        ]

        def emit(title: str, samples: Dict[str, int]) -> None:
            lines.append(f"{title}:")
            for name, count in sorted(samples.items(), key=lambda kv: (-kv[1], kv[0])):
                share = 100.0 * count / total
                lines.append(f"  {name:<28} {count:>8} {share:>6.1f}%")

        emit("phases", self.phase_samples)
        emit("modules", self.module_samples)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler(interval={self.interval}, "
            f"samples={self.total_samples}, running={self.running})"
        )
