"""File walking and rule dispatch for fxlint.

:func:`check_paths` is the engine behind ``python -m repro.analysis``:
it expands files/directories to ``*.py`` modules, parses each once,
runs every applicable registered rule, and filters findings through the
module's pragmas.  Syntax errors surface as ``FX001`` findings rather
than crashing the run, so one broken file cannot hide findings in the
rest of the tree.

:func:`check_project` is the ``--project`` mode: the same per-file pass
plus a :class:`~repro.analysis.projectindex.ProjectIndex` built from the
very same parsed trees (each source file is parsed exactly once — the
acceptance criterion pinned by tests/analysis/test_projectindex.py),
over which the cross-module contract rules (FX504, FX603, FX7xx) run.
Project findings anchor in whichever module carries the drift and
respect that module's pragmas.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.projectindex import ProjectIndex
from repro.analysis.rules import ModuleContext, ProjectRule, Rule, all_rules

__all__ = [
    "check_file",
    "check_paths",
    "check_project",
    "expand_paths",
    "load_default_rules",
]

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def load_default_rules() -> List[Rule]:
    """Import the built-in rule families (registering them) and return all.

    Importing is idempotent: the registry is populated once per process.
    """
    from repro.analysis import (  # noqa: F401
        crosslayer,
        determinism,
        disthygiene,
        hygiene,
        invariants,
        obscontracts,
    )

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


def _parse_module(
    path: str, source: Optional[str] = None
) -> Union[ModuleContext, Finding]:
    """Parse one module (exactly once); a Finding means FX001."""
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    normalised = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return Finding(
            code="FX001",
            rule="syntax-error",
            message=f"cannot parse module: {error.msg}",
            path=normalised,
            line=error.lineno or 1,
            col=(error.offset or 1) - 1,
        )
    return ModuleContext(normalised, source, tree, parse_pragmas(source))


def _check_module(module: ModuleContext, rules: Iterable[Rule]) -> List[Finding]:
    """Run per-file rules over one parsed module, pragma-filtered."""
    findings = []
    for rule in rules:
        if not rule.applies_to(module.path):
            continue
        for finding in rule.check(module):
            if not module.pragmas.suppresses(finding.code, finding.line):
                findings.append(finding)
    return findings


def check_file(
    path: str,
    rules: Optional[Iterable[Rule]] = None,
    source: Optional[str] = None,
) -> List[Finding]:
    """Run the rules over one module, pragma-filtered and sorted.

    ``source`` overrides reading from disk (used by tests feeding
    known-bad snippets under synthetic paths).
    """
    if rules is None:
        rules = load_default_rules()
    parsed = _parse_module(path, source)
    if isinstance(parsed, Finding):
        return [parsed]
    findings = _check_module(parsed, rules)
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


def check_project(
    paths: Sequence[str],
    rules: Optional[Iterable[Rule]] = None,
    tests_root: Optional[str] = None,
) -> Tuple[List[Finding], int, ProjectIndex]:
    """Whole-project mode: per-file rules + cross-module contract rules.

    Every module under ``paths`` is parsed exactly once; the parsed
    trees feed both the per-file rules and the
    :class:`~repro.analysis.projectindex.ProjectIndex` handed to each
    :class:`~repro.analysis.rules.ProjectRule`.  ``tests_root`` (when it
    exists) is indexed as a *reference* tree — string literals only, no
    linting — so assertion cross-checks like FX504 can run.

    Returns ``(findings, files_checked, index)`` with findings sorted by
    location; ``files_checked`` counts analyzed modules only, not
    reference files.
    """
    if rules is None:
        rules = load_default_rules()
    rules = list(rules)
    file_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]

    findings: List[Finding] = []
    index = ProjectIndex()
    modules = expand_paths(paths)
    for module_path in modules:
        parsed = _parse_module(module_path)
        index.parse_count += 1
        if isinstance(parsed, Finding):
            findings.append(parsed)
            continue
        index.add_module(parsed)
        findings.extend(_check_module(parsed, file_rules))

    if tests_root is not None and os.path.isdir(tests_root):
        for reference_path in expand_paths([tests_root]):
            with open(reference_path, "r", encoding="utf-8") as handle:
                index.add_reference_source(reference_path, handle.read())

    for rule in project_rules:
        for finding in rule.check_project(index):
            module = index.modules.get(finding.path)
            if module is not None and module.context.pragmas.suppresses(
                finding.code, finding.line
            ):
                continue
            findings.append(finding)

    findings.sort(key=Finding.sort_key)
    return findings, len(modules), index
