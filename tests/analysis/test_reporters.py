"""Text and JSON reporters."""

import json

from repro.analysis.findings import Finding
from repro.analysis.reporters import (
    REPORT_VERSION,
    render_json,
    render_rule_list,
    render_text,
    report_json,
)
from repro.analysis.checker import load_default_rules

FINDINGS = [
    Finding(
        code="FX102",
        rule="no-global-random",
        message="module-level RNG",
        path="src/repro/x.py",
        line=3,
        col=4,
    ),
    Finding(
        code="FX102",
        rule="no-global-random",
        message="module-level RNG",
        path="src/repro/x.py",
        line=9,
        col=0,
    ),
]


def test_render_text_findings_and_summary():
    text = render_text(FINDINGS, files_checked=7)
    lines = text.splitlines()
    assert lines[0] == "src/repro/x.py:3:4: FX102 module-level RNG"
    assert lines[-1] == "fxlint: 2 findings in 7 files (FX102: 2)"


def test_render_text_clean():
    assert render_text([], files_checked=12) == "fxlint: clean (12 files checked)\n"


def test_json_report_schema():
    report = report_json(FINDINGS, files_checked=7)
    assert report["version"] == REPORT_VERSION
    assert report["files_checked"] == 7
    assert report["finding_count"] == 2
    assert report["counts_by_code"] == {"FX102": 2}
    assert report["findings"][0]["line"] == 3
    # The rendered form round-trips through json.loads.
    assert json.loads(render_json(FINDINGS, 7)) == report


def test_rule_list_covers_every_registered_rule():
    rules = load_default_rules()
    listing = render_rule_list(rules)
    for rule in rules:
        assert rule.code in listing
        assert rule.name in listing

