"""The fxlint command line: ``python -m repro.analysis [PATHS...]``.

Exit-code contract (stable; CI and pre-commit hooks rely on it):

* ``0`` — every checked file is clean (after pragma suppression);
* ``1`` — at least one finding;
* ``2`` — usage or I/O error (unknown rule code, missing path, bad
  baseline file, …).

``--project`` switches on whole-project mode: in addition to the
per-file rules, the cross-module contract rules (FX504, FX603, FX7xx)
run over a single-parse :class:`~repro.analysis.projectindex.ProjectIndex`
of every given path (default ``src`` when none are given), with
``--tests-root`` (default ``tests``) indexed as the reference tree for
assertion cross-checks.  ``--baseline report.json`` suppresses findings
already present in a previous JSON report, so CI can ratchet: exit 0
means *no new findings*, not "historically clean".

Examples::

    python -m repro.analysis src benchmarks
    python -m repro.analysis --format json --output fxlint.json src
    python -m repro.analysis --select FX101,FX102 src/repro/distributed
    python -m repro.analysis --project src
    python -m repro.analysis --project --baseline fxlint-baseline.json
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, TextIO

from repro.analysis.checker import check_paths, check_project, load_default_rules
from repro.analysis.reporters import (
    BaselineError,
    load_baseline,
    render_rule_list,
    split_baseline,
    write_report,
)

__all__ = ["build_parser", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: Default analysis root for ``--project`` runs with no explicit paths.
_DEFAULT_PROJECT_PATH = "src"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the fxlint CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="fxlint: project-specific static checks for the FX-TM repro.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to check (e.g. src benchmarks)",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help=(
            "whole-project mode: build the cross-module index and run the "
            "FX504/FX603/FX7xx contract rules too (paths default to 'src')"
        ),
    )
    parser.add_argument(
        "--tests-root",
        default="tests",
        metavar="DIR",
        help=(
            "reference tree indexed for assertion cross-checks in --project "
            "mode (string literals only, never linted; default: tests)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "a previous JSON report; findings it already records are "
            "suppressed, so the exit code reflects new findings only"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def main(argv: Optional[List[str]] = None, out: Optional[TextIO] = None) -> int:
    """Run fxlint; returns the exit code (see module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout

    rules = load_default_rules()
    if args.list_rules:
        stream.write(render_rule_list(rules))
        return EXIT_CLEAN
    paths = list(args.paths)
    if not paths:
        if args.project and os.path.isdir(_DEFAULT_PROJECT_PATH):
            paths = [_DEFAULT_PROJECT_PATH]
        else:
            parser.print_usage(sys.stderr)
            print("error: no paths given (or use --list-rules)", file=sys.stderr)
            return EXIT_ERROR

    known = {rule.code for rule in rules}
    selected = _split_codes(args.select)
    ignored = _split_codes(args.ignore) or []
    for code in (selected or []) + ignored:
        if code not in known:
            print(f"error: unknown rule code {code}", file=sys.stderr)
            return EXIT_ERROR
    if selected is not None:
        rules = [rule for rule in rules if rule.code in selected]
    if ignored:
        rules = [rule for rule in rules if rule.code not in ignored]

    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_ERROR

    try:
        if args.project:
            findings, files_checked, _ = check_project(
                paths, rules, tests_root=args.tests_root
            )
        else:
            findings, files_checked = check_paths(paths, rules)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR

    suppressed = 0
    if baseline is not None:
        findings, suppressed = split_baseline(findings, baseline)

    mode = "project" if args.project else "files"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            write_report(
                findings,
                files_checked,
                handle,
                args.format,
                mode=mode,
                baseline_path=args.baseline,
                baseline_suppressed=suppressed,
            )
        # Keep the human summary on stdout even when the report goes to a
        # file, so CI logs show the verdict inline.
        write_report(
            findings,
            files_checked,
            stream,
            "text",
            mode=mode,
            baseline_path=args.baseline,
            baseline_suppressed=suppressed,
        )
    else:
        write_report(
            findings,
            files_checked,
            stream,
            args.format,
            mode=mode,
            baseline_path=args.baseline,
            baseline_suppressed=suppressed,
        )
    return EXIT_FINDINGS if findings else EXIT_CLEAN
