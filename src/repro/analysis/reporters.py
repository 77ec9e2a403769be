"""Finding reporters: human-readable text and machine-readable JSON.

The JSON document is stable (``version`` field) so CI can upload it as
an artifact and downstream tooling can diff reports across runs.
Version history:

* **1** — files_checked / finding_count / counts_by_code / findings;
* **2** — added ``mode`` and an optional ``baseline`` object for the
  whole-project mode and its baseline ratchet;
* **3** — the whole-project mode is gone, and with it ``mode`` and
  ``baseline``; the fields are those of version 1.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, Sequence, TextIO

from repro.analysis.findings import Finding

__all__ = [
    "render_text",
    "render_json",
    "render_rule_list",
    "report_json",
    "write_report",
]

#: Schema version of the JSON report.
REPORT_VERSION = 3


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """GCC-style one-line-per-finding text with a trailing summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        counts = Counter(finding.code for finding in findings)
        breakdown = ", ".join(f"{code}: {count}" for code, count in sorted(counts.items()))
        lines.append(
            f"fxlint: {len(findings)} finding{'s' if len(findings) != 1 else ''} "
            f"in {files_checked} files ({breakdown})"
        )
    else:
        lines.append(f"fxlint: clean ({files_checked} files checked)")
    return "\n".join(lines) + "\n"


def report_json(findings: Sequence[Finding], files_checked: int) -> Dict[str, Any]:
    """The report as a JSON-serialisable dict (schema ``REPORT_VERSION``)."""
    counts = Counter(finding.code for finding in findings)
    return {
        "version": REPORT_VERSION,
        "files_checked": files_checked,
        "finding_count": len(findings),
        "counts_by_code": dict(sorted(counts.items())),
        "findings": [finding.to_json() for finding in findings],
    }


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    """The JSON report as an indented, sorted-key string."""
    document = report_json(findings, files_checked)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_report(
    findings: Sequence[Finding],
    files_checked: int,
    out: TextIO,
    fmt: str = "text",
) -> None:
    """Write the report in ``fmt`` (``text`` or ``json``) to ``out``."""
    if fmt == "json":
        out.write(render_json(findings, files_checked))
    else:
        out.write(render_text(findings, files_checked))


def render_rule_list(rules: Sequence[Any]) -> str:
    """The ``--list-rules`` catalogue: one ``CODE name — description`` line each."""
    lines = [f"{rule.code}  {rule.name:<28} {rule.description}" for rule in rules]
    return "\n".join(lines) + "\n"
