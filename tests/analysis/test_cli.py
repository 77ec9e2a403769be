"""fxlint CLI: exit codes, selection, list-rules, report files."""

import io
import json
from pathlib import Path

from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero():
    code, output = run(str(FIXTURES / "clean_module.py"))
    assert code == EXIT_CLEAN
    assert "fxlint: clean" in output


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
    for expected in ("FX101", "FX301", "FX401", "FX504", "FX603"):
        assert expected in output
    for deleted in ("FX501", "FX502", "FX503", "FX601"):
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


def write_project(tmp_path):
    """A tiny project tree with one re-export drift (FX603)."""
    package = tmp_path / "proj" / "repro" / "util"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Utilities."""\n'
        "\n"
        "from repro.util.mod import mystery\n"
        "\n"
        '__all__ = ["mystery"]\n'
    )
    (package / "mod.py").write_text(
        '"""A module exporting less than its package re-exports."""\n'
        "\n"
        '__all__ = ["other"]\n'
        "\n"
        "\n"
        "def other() -> int:\n"
        '    """Return one."""\n'
        "    return 1\n"
        "\n"
        "\n"
        "mystery = other\n"
        "another = other\n"
    )
    return str(tmp_path / "proj")


class TestProjectMode:
    def test_project_mode_runs_contract_rules(self, tmp_path):
        root = write_project(tmp_path)
        code, output = run("--project", root)
        assert code == EXIT_FINDINGS
        assert "FX603" in output and "mystery" in output
        # Plain file mode never runs project rules.
        code, output = run(root)
        assert code == EXIT_CLEAN

    def test_project_json_report_declares_mode(self, tmp_path):
        root = write_project(tmp_path)
        report_path = tmp_path / "report.json"
        code, _ = run(
            "--project", "--format", "json", "--output", str(report_path), root
        )
        assert code == EXIT_FINDINGS
        report = json.loads(report_path.read_text())
        assert report["mode"] == "project"
        assert report["counts_by_code"] == {"FX603": 1}

    def test_select_and_pragmas_apply_to_project_rules(self, tmp_path):
        root = write_project(tmp_path)
        code, _ = run("--project", "--select", "FX504", root)
        assert code == EXIT_CLEAN
        package = Path(root) / "repro" / "util" / "__init__.py"
        package.write_text(
            package.read_text().replace(
                "import mystery\n",
                "import mystery  # fxlint: disable=FX603\n",
            )
        )
        code, _ = run("--project", root)
        assert code == EXIT_CLEAN


class TestBaselineRatchet:
    def test_baseline_suppresses_known_findings(self, tmp_path):
        root = write_project(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        code, _ = run(
            "--project", "--format", "json", "--output", str(baseline_path), root
        )
        assert code == EXIT_FINDINGS
        # Ratcheted rerun: same findings, so the exit code drops to 0.
        code, output = run("--project", "--baseline", str(baseline_path), root)
        assert code == EXIT_CLEAN
        assert "1 baseline finding suppressed" in output

    def test_new_finding_still_fails_under_baseline(self, tmp_path):
        root = write_project(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        run("--project", "--format", "json", "--output", str(baseline_path), root)
        package = Path(root) / "repro" / "util" / "__init__.py"
        package.write_text(
            package.read_text().replace("import mystery", "import another, mystery")
        )
        code, output = run("--project", "--baseline", str(baseline_path), root)
        assert code == EXIT_FINDINGS
        assert "another" in output
        assert "mystery" not in output

    def test_bad_baseline_exits_two(self, tmp_path):
        root = write_project(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run("--project", "--baseline", str(bad), root)
        assert code == EXIT_ERROR
        code, _ = run(
            "--project", "--baseline", str(tmp_path / "missing.json"), root
        )
        assert code == EXIT_ERROR
