"""fxlint CLI: exit codes, selection, list-rules, report files."""

import io
import json
from pathlib import Path

from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero():
    code, output = run(str(FIXTURES / "clean_module.py"))
    assert code == EXIT_CLEAN
    assert "fxlint: clean" in output


def test_src_tree_is_clean():
    """The same invocation as the CI static-analysis job."""
    code, output = run(str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks"))
    assert code == EXIT_CLEAN, output


def test_bad_fixture_exits_one_with_codes():
    code, output = run(str(FIXTURES / "bad_invariants.py"))
    assert code == EXIT_FINDINGS
    assert "FX401" in output and "FX402" in output


def test_missing_path_exits_two():
    code, _ = run("no/such/path")
    assert code == EXIT_ERROR


def test_no_paths_exits_two():
    code, _ = run()
    assert code == EXIT_ERROR


def test_unknown_code_exits_two():
    code, _ = run("--select", "FX999", str(FIXTURES / "clean_module.py"))
    assert code == EXIT_ERROR


def test_select_narrows_rules():
    code, output = run("--select", "FX401", str(FIXTURES / "bad_invariants.py"))
    assert code == EXIT_FINDINGS
    assert "FX401" in output and "FX402" not in output


def test_ignore_drops_rules():
    code, output = run(
        "--ignore", "FX401,FX402", str(FIXTURES / "bad_invariants.py")
    )
    assert code == EXIT_CLEAN
    assert "fxlint: clean" in output


def test_list_rules():
    code, output = run("--list-rules")
    assert code == EXIT_CLEAN
    for expected in ("FX101", "FX301", "FX401"):
        assert expected in output
    retired = ("FX501", "FX502", "FX503", "FX504", "FX601", "FX603", "FX701", "FX702")
    for deleted in retired:
        assert deleted not in output


def test_json_report_to_file(tmp_path):
    report_path = tmp_path / "fxlint.json"
    code, output = run(
        "--format",
        "json",
        "--output",
        str(report_path),
        str(FIXTURES / "bad_hygiene.py"),
    )
    assert code == EXIT_FINDINGS
    report = json.loads(report_path.read_text())
    assert report["finding_count"] == len(report["findings"]) > 0
    # The human summary still lands on stdout for CI logs.
    assert "fxlint:" in output

