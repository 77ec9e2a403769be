"""FX6xx — cross-layer API consistency rules (whole-project).

The request protocol and the package surfaces each span several
modules that must move together:

* a :class:`RequestKind` member handled by one controller surface but
  not another is a verb that works locally and 500s distributed — every
  module that dispatches on the enum must cover every member (FX601);
* a package ``__init__`` re-exporting a name its submodule's
  ``__all__`` does not declare (or importing a public name it then
  leaves out of its own ``__all__``) makes the two advertised surfaces
  disagree (FX603).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.projectindex import ClassInfo, ModuleInfo, ProjectIndex
from repro.analysis.rules import ProjectRule, register

__all__ = ["RequestKindCoverageRule", "ReexportDriftRule"]

#: Modules referencing at least this many distinct enum members count as
#: dispatch surfaces (a module constructing one kind is not a handler).
_SURFACE_THRESHOLD = 2


@register
class RequestKindCoverageRule(ProjectRule):
    """FX601: request kinds missing from a dispatch surface."""

    code = "FX601"
    name = "request-kind-coverage"
    description = "RequestKind member unhandled in a controller/CLI surface"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for enum_cls in index.classes_named("RequestKind"):
            if not self._is_enum(enum_cls):
                continue
            members = [
                name for name, _ in enum_cls.assigned if not name.startswith("_")
            ]
            if not members:
                continue
            prefix = f"{enum_cls.qualname}."
            for path in sorted(index.modules):
                info = index.modules[path]
                seen: Dict[str, ast.AST] = {}
                for resolved, node in info.attr_refs:
                    if resolved.startswith(prefix):
                        member = resolved[len(prefix) :]
                        if member in members:
                            seen.setdefault(member, node)
                if path == enum_cls.path or len(seen) < _SURFACE_THRESHOLD:
                    continue
                anchor = min(seen.values(), key=lambda n: getattr(n, "lineno", 1))
                for member in members:
                    if member not in seen:
                        yield self.project_finding(
                            path,
                            anchor,
                            f"dispatches on {enum_cls.name} but never handles "
                            f"{enum_cls.name}.{member}; every surface must "
                            "cover every request kind",
                        )

    @staticmethod
    def _is_enum(cls: ClassInfo) -> bool:
        return any(base.rpartition(".")[2] == "Enum" for base in cls.bases)


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
