"""FX504 — structured-log events no test asserts (whole-project).

A structured-log event nobody asserts is an event free to drift or
vanish, so each emitted event name must appear in some test.  The rule
is a :class:`~repro.analysis.rules.ProjectRule` fed by the
:class:`~repro.analysis.projectindex.ProjectIndex`; it never re-reads or
re-parses source.

The rest of the observability vocabulary is checked at runtime rather
than here: span names against :data:`repro.obs.tracing.SPAN_NAMES`
(tests/obs/test_tracing.py), heat counters against their
``repro_heat_*`` mirrors (tests/obs/test_heat.py), and metric label
sets by :class:`~repro.obs.metrics.MetricsRegistry` itself.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.projectindex import ProjectIndex, StringCall
from repro.analysis.rules import ProjectRule, register

__all__ = ["LogEventAssertedRule"]

#: StructuredLogger emit methods carrying an event name first.
_LOG_METHODS = ("log", "debug", "info", "warning", "error")


@register
class LogEventAssertedRule(ProjectRule):
    """FX504: emitted log events no test ever asserts."""

    code = "FX504"
    name = "log-event-unasserted"
    description = "structured-log event name never asserted by any test"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        if not index.reference_files:
            # No test tree indexed (plain file runs): the assertion
            # cross-check has nothing to compare against — stay silent
            # instead of flagging every event.
            return
        for call in index.iter_string_calls(list(_LOG_METHODS)):
            if not self._is_logger_emit(call):
                continue
            if call.value not in index.reference_literals:
                yield self.project_finding(
                    call.path,
                    call.node,
                    f"log event {call.value!r} is never asserted by any "
                    "test; unpinned events drift silently (assert it in a "
                    "test or drop the emit)",
                )

    @staticmethod
    def _is_logger_emit(call: StringCall) -> bool:
        receiver = (call.receiver or "").lower()
        if "log" not in receiver:
            return False
        # Event names are dotted (``leaf.alive``); undotted literals are
        # almost always messages to foreign loggers, not our contract.
        return "." in call.value and " " not in call.value
