"""Small AST helpers shared by the fxlint rules."""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["import_aliases", "resolve_call_origin"]


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the fully-qualified origin they import.

    ``import time`` → ``{"time": "time"}``;
    ``import datetime as dt`` → ``{"dt": "datetime"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``;
    ``from time import time as now`` → ``{"now": "time.time"}``.

    Only top-level and function/class-nested plain imports are walked;
    relative imports keep their module text (they cannot be stdlib
    ``time``/``random``, which is all the determinism rules care about).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                origin = item.name if item.asname else item.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import - not a stdlib origin
                continue
            module = node.module or ""
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{module}.{item.name}" if module else item.name
    return aliases


def resolve_call_origin(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The fully-qualified origin of a call target, through import aliases.

    With ``aliases`` from :func:`import_aliases`, ``dt.datetime.now``
    resolves to ``datetime.datetime.now`` and a bare ``now`` (imported
    ``from time import time as now``) resolves to ``time.time``.
    """
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    origin = aliases.get(func.id, func.id)
    return ".".join([origin] + parts[::-1])
