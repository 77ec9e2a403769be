"""fxlint — the project-specific static checker for the FX-TM reproduction.

The reproduction leans on invariants that ordinary linters cannot see:
fault-plan replay requires seeded randomness and simulated time
(docs/fault_tolerance.md), and exact top-k semantics forbid float
equality on scores.  This package checks those invariants mechanically,
over the AST, with zero external dependencies — the same
correctness-tooling posture that lets large matching systems stay exact
under churn.

Layout:

* :mod:`repro.analysis.findings` — the :class:`Finding` record;
* :mod:`repro.analysis.rules` — the rule base class and registry;
* :mod:`repro.analysis.pragmas` — ``# fxlint: disable=CODE`` handling;
* :mod:`repro.analysis.checker` — file walking and rule dispatch;
* :mod:`repro.analysis.determinism` / :mod:`~repro.analysis.hygiene` /
  :mod:`~repro.analysis.invariants` — the built-in per-file rule
  families (codes FX1xx, FX3xx, FX4xx; lock discipline has no rule,
  because its one subject, ``ThreadSafeMatcher``, is pinned by a direct
  test in tests/core/test_concurrent.py);
* :mod:`repro.analysis.projectindex` — the single-parse whole-project
  index (string-literal call sites, class hierarchies, ``__all__``
  exports, a lightweight call graph) behind ``--project`` mode;
* :mod:`repro.analysis.obscontracts` / :mod:`~repro.analysis.crosslayer`
  / :mod:`~repro.analysis.disthygiene` — the cross-module contract
  rules (FX504 unasserted log events, FX603 re-export drift, FX7xx
  distributed error-path hygiene).  Span names, heat mirrors, metric
  label sets and request-kind coverage have no rule: the
  ``SPAN_NAMES`` declaration, the metrics registry and direct tests
  check them on a running system;
* :mod:`repro.analysis.reporters` — human-readable and JSON output;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` entry point.

See docs/static_analysis.md for the rule catalogue and pragma syntax.
"""

from __future__ import annotations

from repro.analysis.checker import (
    check_file,
    check_paths,
    check_project,
    load_default_rules,
)
from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaSet
from repro.analysis.projectindex import ProjectIndex
from repro.analysis.rules import ProjectRule, Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "PragmaSet",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "all_rules",
    "check_file",
    "check_paths",
    "check_project",
    "get_rule",
    "load_default_rules",
    "register",
]
