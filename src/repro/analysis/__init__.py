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
  families (codes FX1xx, FX3xx, FX4xx).  Every rule reads one module
  at a time.  Contracts that span modules — lock sides, span and log
  event vocabularies, heat mirrors, metric label sets, request kinds,
  package re-exports, retry policy on every hop, failure evidence —
  have no rule: direct tests check them on a running system;
* :mod:`repro.analysis.reporters` — human-readable and JSON output;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` entry point.

See docs/static_analysis.md for the rule catalogue and pragma syntax.
"""

from __future__ import annotations

from repro.analysis.checker import check_file, check_paths, load_default_rules
from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaSet
from repro.analysis.rules import Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "PragmaSet",
    "Rule",
    "all_rules",
    "check_file",
    "check_paths",
    "get_rule",
    "load_default_rules",
    "register",
]
