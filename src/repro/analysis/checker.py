"""File walking and rule dispatch for fxlint.

:func:`check_paths` is the engine behind ``python -m repro.analysis``:
it expands files/directories to ``*.py`` modules, parses each once,
runs every applicable registered rule, and filters findings through the
module's pragmas.  Syntax errors surface as ``FX001`` findings rather
than crashing the run, so one broken file cannot hide findings in the
rest of the tree.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence

from repro.analysis.findings import Finding
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.rules import ModuleContext, Rule, all_rules

__all__ = [
    "check_file",
    "check_paths",
    "expand_paths",
    "load_default_rules",
]

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def load_default_rules() -> List[Rule]:
    """Import the built-in rule families (registering them) and return all.

    Importing is idempotent: the registry is populated once per process.
    """
    from repro.analysis import determinism, hygiene, invariants  # noqa: F401

    return all_rules()


def expand_paths(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises FileNotFoundError for a path that does not exist, so typos on
    the command line fail loudly instead of silently checking nothing.
    """
    modules: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            modules.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIPPED_DIRS)
                for name in sorted(files):
                    if name.endswith(".py"):
                        modules.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return modules


def check_file(
    path: str,
    rules: Optional[Iterable[Rule]] = None,
    source: Optional[str] = None,
) -> List[Finding]:
    """Parse one module once and run the rules over it, pragma-filtered
    and sorted; a syntax error yields a single FX001 finding.

    ``source`` overrides reading from disk (used by tests feeding
    known-bad snippets under synthetic paths).
    """
    if rules is None:
        rules = load_default_rules()
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    normalised = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                code="FX001",
                rule="syntax-error",
                message=f"cannot parse module: {error.msg}",
                path=normalised,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
            )
        ]
    module = ModuleContext(normalised, source, tree, parse_pragmas(source))
    findings = []
    for rule in rules:
        if not rule.applies_to(module.path):
            continue
        for finding in rule.check(module):
            if not module.pragmas.suppresses(finding.code, finding.line):
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def check_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[Rule]] = None,
) -> "tuple[List[Finding], int]":
    """Check every module under ``paths``.

    Returns ``(findings, files_checked)`` with findings sorted by
    location.
    """
    if rules is None:
        rules = load_default_rules()
    rules = list(rules)
    findings: List[Finding] = []
    modules = expand_paths(paths)
    for module_path in modules:
        findings.extend(check_file(module_path, rules))
    findings.sort(key=Finding.sort_key)
    return findings, len(modules)

