"""The whole-project index behind fxlint's cross-module contract rules.

Per-file rules (FX1xx–FX4xx) see one module at a time, so drift between
modules — a log event emitted in ``distributed/health.py`` that no test
asserts, a re-export its submodule does not declare — is invisible to
them.  The :class:`ProjectIndex` closes that gap: the checker parses
every module of the analyzed tree exactly once (the parse count is
tracked and pinned by test) and folds each parsed module into a
queryable index of

* **string-literal call arguments** (:class:`StringCall`) — span names,
  metric names, log event names, anything passed as a first-argument
  string literal to a method call;
* **class hierarchies** (:class:`ClassInfo`) — resolved base-class
  names and methods;
* **``__all__`` exports and ``from … import``** records per module;
* a **lightweight call graph** (:class:`FunctionInfo`) — per-function
  call sites with their dotted callee text, resolvable across
  ``self.``-method and module-local edges;
* **reference literals** — every string literal under the test tree, so
  rules can ask "is this event name ever asserted anywhere?".

Project rules (FX504, FX603 and FX7xx in
:mod:`~repro.analysis.obscontracts`, :mod:`~repro.analysis.crosslayer`
and :mod:`~repro.analysis.disthygiene`)
subclass :class:`~repro.analysis.rules.ProjectRule` and receive this
index; they never re-parse or re-read source themselves.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.astutil import dotted_name, import_aliases
from repro.analysis.rules import ModuleContext

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "StringCall",
    "module_name_of",
]

#: Both function-def node flavours; the index treats them identically.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_of(path: str) -> Optional[str]:
    """Dotted module name of a source path, or ``None`` outside a package.

    ``src/repro/core/matcher.py`` → ``repro.core.matcher``;
    ``src/repro/obs/__init__.py`` → ``repro.obs``.  The heuristic keys
    on the last ``repro`` path segment so it works for the real tree and
    for synthetic test trees laid out the same way.
    """
    normalised = path.replace("\\", "/")
    parts = normalised.split("/")
    anchors = [i for i, part in enumerate(parts) if part == "repro"]
    if not anchors:
        return None
    tail = parts[anchors[-1] :]
    if tail[-1].endswith(".py"):
        tail[-1] = tail[-1][: -len(".py")]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


class StringCall:
    """One method call whose first argument is a string literal."""

    __slots__ = ("path", "node", "receiver", "attr", "value")

    def __init__(
        self, path: str, node: ast.Call, receiver: Optional[str], attr: str, value: str
    ) -> None:
        #: Module path the call lives in (report anchor).
        self.path = path
        self.node = node
        #: Dotted receiver text (``tracer``, ``self.logger`` …) or None.
        self.receiver = receiver
        #: The called method name (``span``, ``info``, ``counter`` …).
        self.attr = attr
        #: The first-argument string literal.
        self.value = value


class ClassInfo:
    """One class definition with resolved bases and its methods."""

    __slots__ = ("path", "modname", "name", "qualname", "node", "bases", "methods")

    def __init__(
        self,
        path: str,
        modname: Optional[str],
        name: str,
        node: ast.ClassDef,
        bases: List[str],
        methods: Dict[str, FunctionNode],
    ) -> None:
        self.path = path
        self.modname = modname
        self.name = name
        #: ``modname.ClassName`` (falls back to the path when unpackaged).
        self.qualname = f"{modname}.{name}" if modname else f"{path}:{name}"
        self.node = node
        #: Base-class names resolved through import aliases where possible.
        self.bases = bases
        self.methods = methods


class FunctionInfo:
    """One function/method with its outgoing call sites."""

    __slots__ = ("path", "modname", "qualname", "owner", "node", "call_sites")

    def __init__(
        self,
        path: str,
        modname: Optional[str],
        qualname: str,
        owner: Optional[str],
        node: FunctionNode,
    ) -> None:
        self.path = path
        self.modname = modname
        #: ``modname.Class.method`` / ``modname.func``.
        self.qualname = qualname
        #: Owning class name (None for module-level functions).
        self.owner = owner
        self.node = node
        #: ``(dotted callee text, call node)`` pairs, body order.
        self.call_sites: List[Tuple[str, ast.Call]] = []

    def param_names(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return names

    def references_self_attr(self, attrs: Sequence[str]) -> bool:
        """Whether the body reads ``self.<attr>`` for any given attr."""
        for node in ast.walk(self.node):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in attrs
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False


class ModuleInfo:
    """Everything the index extracted from one parsed module."""

    __slots__ = (
        "context",
        "modname",
        "aliases",
        "all_names",
        "classes",
        "functions",
        "string_calls",
        "import_froms",
    )

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.modname = module_name_of(context.path)
        self.aliases = import_aliases(context.tree)
        #: Names declared by a literal ``__all__`` (None when absent).
        self.all_names: Optional[List[str]] = None
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.string_calls: List[StringCall] = []
        #: ``(resolved module, name, node)`` per ``from M import name``.
        self.import_froms: List[Tuple[str, str, ast.ImportFrom]] = []

    @property
    def path(self) -> str:
        return self.context.path

    def resolve(self, dotted: str) -> str:
        """Resolve the head of a dotted chain through import aliases."""
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head, head)
        return f"{origin}.{rest}" if rest else origin


class ProjectIndex:
    """The queryable cross-module fact base (see the module docstring)."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_modname: Dict[str, ModuleInfo] = {}
        #: String literals collected from reference (test) sources.
        self.reference_literals: Set[str] = set()
        #: Reference files folded in (0 → assertion rules stay silent).
        self.reference_files = 0
        #: Total source parses behind this index: analyzed modules
        #: (counted by the checker, which hands them over pre-parsed)
        #: plus reference sources (counted here).  The one-parse-per-file
        #: acceptance criterion pins this against the file count.
        self.parse_count = 0
        self._class_by_name: Dict[str, List[ClassInfo]] = {}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add_module(self, context: ModuleContext) -> ModuleInfo:
        """Fold one already-parsed module into the index."""
        info = ModuleInfo(context)
        self.modules[context.path] = info
        if info.modname:
            self.by_modname[info.modname] = info
        self._extract(info)
        return info

    def add_reference_source(self, path: str, source: str) -> None:
        """Collect every string literal of a reference (test) file."""
        self.reference_files += 1
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        finally:
            self.parse_count += 1
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.reference_literals.add(node.value)

    def _extract(self, info: ModuleInfo) -> None:
        tree = info.context.tree
        for stmt in tree.body:
            self._extract_all(info, stmt)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._extract_class(info, node)
            elif isinstance(node, ast.Call):
                self._extract_call(info, node)
            elif isinstance(node, ast.ImportFrom):
                self._extract_import_from(info, node)
        self._extract_functions(info)

    def _extract_all(self, info: ModuleInfo, stmt: ast.stmt) -> None:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "__all__"):
            return
        if isinstance(stmt.value, (ast.List, ast.Tuple)):
            names = [
                element.value
                for element in stmt.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]
            info.all_names = names

    def _extract_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                bases.append(info.resolve(dotted))
        methods: Dict[str, FunctionNode] = {
            stmt.name: stmt for stmt in node.body if isinstance(stmt, _FUNCTION_NODES)
        }
        cls = ClassInfo(info.path, info.modname, node.name, node, bases, methods)
        info.classes[node.name] = cls
        self._class_by_name.setdefault(node.name, []).append(cls)

    def _extract_call(self, info: ModuleInfo, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        info.string_calls.append(
            StringCall(info.path, node, dotted_name(func.value), func.attr, first.value)
        )

    def _extract_import_from(self, info: ModuleInfo, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            if info.modname is None:
                return
            package = info.modname
            # __init__ modules are the package itself; a module's
            # relative import resolves against its parent package.
            if not info.path.replace("\\", "/").endswith("/__init__.py"):
                package = package.rpartition(".")[0]
            for _ in range(node.level - 1):
                package = package.rpartition(".")[0]
            module = f"{package}.{module}" if module else package
        for item in node.names:
            if item.name != "*":
                info.import_froms.append((module, item.name, node))

    def _extract_functions(self, info: ModuleInfo) -> None:
        modname = info.modname or info.path

        def visit(body: Sequence[ast.stmt], prefix: str, owner: Optional[str]) -> None:
            for stmt in body:
                if isinstance(stmt, _FUNCTION_NODES):
                    qualname = f"{prefix}.{stmt.name}"
                    function = FunctionInfo(info.path, info.modname, qualname, owner, stmt)
                    for node in ast.walk(stmt):
                        if isinstance(node, ast.Call):
                            dotted = dotted_name(node.func)
                            if dotted is not None:
                                function.call_sites.append((dotted, node))
                    info.functions[qualname] = function
                elif isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, f"{prefix}.{stmt.name}", stmt.name)

        visit(info.context.tree.body, modname, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def iter_string_calls(self, attrs: Sequence[str]) -> Iterator[StringCall]:
        """Every indexed string-literal call to one of the methods."""
        wanted = set(attrs)
        for path in sorted(self.modules):
            for call in self.modules[path].string_calls:
                if call.attr in wanted:
                    yield call

    def resolve_class(self, dotted: str) -> Optional[ClassInfo]:
        """A class by resolved dotted name, falling back to a unique basename."""
        modname, _, name = dotted.rpartition(".")
        if modname:
            info = self.by_modname.get(modname)
            if info is not None and name in info.classes:
                return info.classes[name]
        candidates = self._class_by_name.get(name or dotted, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def ancestors_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Transitive resolvable base classes, nearest first."""
        out: List[ClassInfo] = []
        seen = {cls.qualname}
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            for base in current.bases:
                resolved = self.resolve_class(base)
                if resolved is not None and resolved.qualname not in seen:
                    seen.add(resolved.qualname)
                    out.append(resolved)
                    frontier.append(resolved)
        return out

    def resolve_function(
        self, caller: FunctionInfo, dotted: str
    ) -> Optional[FunctionInfo]:
        """Resolve a call-site's dotted text to an indexed function.

        Handles the two edge kinds the contract rules need: ``self.m``
        (a method of the caller's own class or its indexed ancestors)
        and bare module-local names.  Anything else — deeper attribute
        chains, cross-object calls — resolves to ``None``; the rules
        stay conservative rather than guessing.
        """
        info = self.modules.get(caller.path)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if head == "self" and rest and "." not in rest and caller.owner is not None:
            owner = info.classes.get(caller.owner)
            if owner is None:
                return None
            for cls in [owner] + self.ancestors_of(owner):
                if rest in cls.methods:
                    owner_info = self.modules.get(cls.path)
                    if owner_info is None:
                        return None
                    qualname = f"{cls.modname or cls.path}.{cls.name}.{rest}"
                    return owner_info.functions.get(qualname)
            return None
        if "." not in dotted:
            return info.functions.get(f"{info.modname or info.path}.{dotted}")
        return None
