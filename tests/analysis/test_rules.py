"""fxlint rule families against the known-bad fixtures.

Each fixture marks its violations with trailing ``# expect: CODE``
comments; the harness diffs the ``(line, code)`` pairs those comments
declare against the checker's actual findings, so false negatives and
false positives both fail with locations.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import check_file

FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z0-9,\s]+)")


def expected_findings(path):
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            for code in match.group("codes").split(","):
                expected.add((lineno, code.strip()))
    return expected


def actual_findings(path):
    return {(finding.line, finding.code) for finding in check_file(str(path))}


@pytest.mark.parametrize(
    "fixture",
    [
        "repro/distributed/bad_determinism.py",
        "bad_hygiene.py",
        "bad_invariants.py",
    ],
)
def test_fixture_findings_exact(fixture):
    path = FIXTURES / fixture
    expected = expected_findings(path)
    assert expected, f"fixture {fixture} declares no expectations"
    assert actual_findings(path) == expected


def test_clean_fixture_is_clean():
    assert check_file(str(FIXTURES / "clean_module.py")) == []


def test_wall_clock_rule_is_path_scoped(tmp_path):
    # The identical source outside simulation-critical paths: FX101 is
    # path-scoped and must not fire, while FX102/FX103 apply everywhere.
    source = (FIXTURES / "repro" / "distributed" / "bad_determinism.py").read_text()
    neutral = tmp_path / "neutral_module.py"
    neutral.write_text(source)
    codes = {finding.code for finding in check_file(str(neutral))}
    assert "FX101" not in codes
    assert {"FX102", "FX103"} <= codes


def test_syntax_error_reports_fx001(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    findings = check_file(str(broken))
    assert [finding.code for finding in findings] == ["FX001"]


def test_findings_are_sorted_by_location():
    findings = check_file(str(FIXTURES / "bad_hygiene.py"))
    keys = [finding.sort_key() for finding in findings]
    assert keys == sorted(keys)
