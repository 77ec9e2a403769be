"""The acceptance gate: project mode is clean over the real tree.

These tests run fxlint's ``--project`` mode against the repository
itself — the same invocation CI runs — so any reintroduced contract
drift (an unasserted log event, a re-export drift, a swallowed
distributed exception, …) fails the suite, not just the lint job.
"""

from pathlib import Path

import pytest

from repro.analysis.checker import check_project

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"

pytestmark = pytest.mark.skipif(
    not (SRC / "repro").is_dir(), reason="source tree not present"
)


@pytest.fixture(scope="module")
def project_result():
    return check_project([str(SRC)], tests_root=str(TESTS))


def test_src_tree_is_clean(project_result):
    findings, files_checked, _ = project_result
    rendered = "\n".join(finding.render() for finding in findings)
    assert not findings, f"fxlint --project found drift:\n{rendered}"
    assert files_checked > 50


def test_index_parses_each_module_once(project_result):
    _, files_checked, index = project_result
    assert index.parse_count == files_checked + index.reference_files


def test_contract_rules_actually_ran(project_result):
    """Guard against the clean result being vacuous."""
    _, _, index = project_result
    # FX504 saw log events and a reference tree to check them against.
    events = [
        call
        for call in index.iter_string_calls(["info", "warning", "error"])
        if "log" in (call.receiver or "")
    ]
    assert len(events) >= 5
    assert index.reference_files > 50
    assert "leaf.alive" in index.reference_literals
