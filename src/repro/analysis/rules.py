"""The fxlint rule framework: module context, rule base class, registry.

A rule is a class with a stable ``code`` (``FX101`` …), a short ``name``
used in reports, and a :meth:`Rule.check` generator yielding
:class:`~repro.analysis.findings.Finding` objects for one parsed module.
Registering is one decorator::

    @register
    class MyRule(Rule):
        code = "FX999"
        name = "my-rule"
        description = "what it catches and why it matters"

        def check(self, module):
            ...
            yield self.finding(module, node, "message")

Codes group into families: FX0xx framework (syntax errors), FX1xx
determinism, FX3xx API hygiene and FX4xx scoring/index invariants.
The other families are retired: each guarded a contract with a handful
of subjects, and a direct test now pins each one on a running system
(docs/static_analysis.md lists where).  Rules may scope themselves to
the packages where their invariant is load-bearing by overriding
:meth:`Rule.applies_to` (e.g. determinism rules only fire inside the
simulation-critical packages).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Type, TypeVar

from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaSet

__all__ = [
    "ModuleContext",
    "Rule",
    "RuleType",
    "UnknownPragmaCodeRule",
    "all_rules",
    "get_rule",
    "register",
]

#: Path fragments (posix-style, relative) marking simulation-critical code:
#: deterministic replay — fault plans, simulated latency, pinned trace
#: durations, reproducible workloads — breaks if these see wall-clock time
#: or unseeded randomness.
SIMULATION_CRITICAL = (
    "repro/distributed/",
    "repro/bench/",
    "repro/workloads/",
    "repro/obs/tracing.py",
    "benchmarks/",
)


class ModuleContext:
    """One parsed module handed to every applicable rule."""

    __slots__ = ("path", "source", "tree", "pragmas")

    def __init__(self, path: str, source: str, tree: ast.Module, pragmas: PragmaSet) -> None:
        #: Posix-style path as given on the command line (used in reports).
        self.path = path
        self.source = source
        self.tree = tree
        self.pragmas = pragmas

    def is_simulation_critical(self) -> bool:
        path = self.path.replace("\\", "/")
        return any(fragment in path for fragment in SIMULATION_CRITICAL)


class Rule:
    """Base class for fxlint rules; subclass, set the fields, register."""

    #: Stable identifier addressed by pragmas and --select/--ignore.
    code: str = "FX000"
    #: Short kebab-case name shown in reports and --list-rules.
    name: str = "abstract"
    #: One-line description for --list-rules and the docs catalogue.
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether the rule should run on this file (default: every file)."""
        return True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield a finding per violation in ``module``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers

    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            code=self.code,
            rule=self.name,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


RuleType = TypeVar("RuleType", bound=Type[Rule])

_REGISTRY: Dict[str, Rule] = {}


def register(rule_class: RuleType) -> RuleType:
    """Class decorator adding one instance of the rule to the registry.

    Codes are unique; re-registering an existing code raises ValueError
    (catches copy-paste errors when adding rules).
    """
    rule = rule_class()
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}: {rule.name}")
    _REGISTRY[rule.code] = rule
    return rule_class


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    """Look a rule up by code; raises KeyError for unknown codes."""
    return _REGISTRY[code]


@register
class UnknownPragmaCodeRule(Rule):
    """FX002: a pragma names a code no registered rule owns.

    A typo'd ``# fxlint: disable=FX1O1`` used to no-op silently — the
    finding it meant to suppress kept firing *and* nobody learned why.
    Warning here makes pragmas self-verifying.  Lives in the framework
    family (FX0xx) next to FX001 because it guards the framework's own
    surface, not a code invariant.
    """

    code = "FX002"
    name = "unknown-pragma-code"
    description = "fxlint pragma names a code no registered rule owns"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        known = set(_REGISTRY) | {"FX001"}
        for kind, line, code in module.pragmas.entries:
            if code != "all" and code not in known:
                yield Finding(
                    code=self.code,
                    rule=self.name,
                    message=(
                        f"pragma {kind}={code} matches no registered rule code "
                        "(typo? the suppression is a no-op)"
                    ),
                    path=module.path,
                    line=line,
                )
