"""FX603 — package re-export consistency (whole-project).

A package ``__init__`` re-exporting a name its submodule's ``__all__``
does not declare (or importing a public name it then leaves out of its
own ``__all__``) makes the two advertised surfaces disagree.

Request-kind coverage across the serving fronts is checked at runtime:
tests/test_request_kinds.py runs every ``RequestKind`` through both
controllers and the CLI.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.projectindex import ModuleInfo, ProjectIndex
from repro.analysis.rules import ProjectRule, register

__all__ = ["ReexportDriftRule"]


@register
class ReexportDriftRule(ProjectRule):
    """FX603: package __init__ and module __all__ out of step."""

    code = "FX603"
    name = "reexport-drift"
    description = "package __init__ re-export disagrees with a module __all__"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for path in sorted(index.modules):
            info = index.modules[path]
            if not info.path.replace("\\", "/").endswith("/__init__.py"):
                continue
            yield from self._check_package(index, info)

    def _check_package(
        self, index: ProjectIndex, package: ModuleInfo
    ) -> Iterator[Finding]:
        imported_public: List[Tuple[str, ast.ImportFrom]] = []
        for module, name, node in package.import_froms:
            source = index.by_modname.get(module)
            if source is None or name.startswith("_"):
                continue
            imported_public.append((name, node))
            declared = source.all_names
            if declared is not None and name not in declared and name in (
                self._bound_names(source)
            ):
                yield self.project_finding(
                    package.path,
                    node,
                    f"re-exports {name!r} from {module} but {module}.__all__ "
                    "does not declare it; add it there or stop re-exporting",
                )
        if package.all_names is not None:
            exported = set(package.all_names)
            for name, node in imported_public:
                if name not in exported:
                    yield self.project_finding(
                        package.path,
                        node,
                        f"imports {name!r} into the package namespace but "
                        "leaves it out of __all__; the two public surfaces "
                        "disagree",
                    )

    @staticmethod
    def _bound_names(module: ModuleInfo) -> Set[str]:
        """Names actually defined/assigned at the module's top level."""
        names: Set[str] = set()
        for stmt in module.context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
        return names
