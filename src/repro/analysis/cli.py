"""The fxlint command line: ``python -m repro.analysis [PATHS...]``.

Exit-code contract (stable; CI and pre-commit hooks rely on it):

* ``0`` — every checked file is clean (after pragma suppression);
* ``1`` — at least one finding;
* ``2`` — usage or I/O error (unknown rule code, missing path, …).

Examples::

    python -m repro.analysis src benchmarks
    python -m repro.analysis --format json --output fxlint.json src
    python -m repro.analysis --select FX101,FX102 src/repro/distributed
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, TextIO

from repro.analysis.checker import check_paths, load_default_rules
from repro.analysis.reporters import render_rule_list, write_report

__all__ = ["build_parser", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


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
    if not args.paths:
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

    try:
        findings, files_checked = check_paths(args.paths, rules)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            write_report(findings, files_checked, handle, args.format)
        # Keep the human summary on stdout even when the report goes to a
        # file, so CI logs show the verdict inline.
        write_report(findings, files_checked, stream, "text")
    else:
        write_report(findings, files_checked, stream, args.format)
    return EXIT_FINDINGS if findings else EXIT_CLEAN
