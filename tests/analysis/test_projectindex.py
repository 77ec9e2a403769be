"""The whole-project index: queries and the one-parse-per-file pin."""

import ast
import textwrap

from repro.analysis.checker import check_project
from repro.analysis.projectindex import ProjectIndex, module_name_of
from repro.analysis.rules import ModuleContext
from repro.analysis.pragmas import parse_pragmas


def write_tree(tmp_path, files):
    """Lay ``{relative path: source}`` out under ``tmp_path``."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(tmp_path / "repro")


def parsed_module(path, source):
    source = textwrap.dedent(source)
    return ModuleContext(path, source, ast.parse(source), parse_pragmas(source))


class TestModuleNameOf:
    def test_regular_module(self):
        assert module_name_of("src/repro/core/matcher.py") == "repro.core.matcher"

    def test_package_init(self):
        assert module_name_of("src/repro/obs/__init__.py") == "repro.obs"

    def test_outside_any_package(self):
        assert module_name_of("scripts/tool.py") is None

    def test_keys_on_last_repro_segment(self):
        assert module_name_of("/tmp/x/repro/a/repro/core/m.py") == "repro.core.m"


class TestIndexQueries:
    def build(self):
        index = ProjectIndex()
        index.add_module(
            parsed_module(
                "repro/core/kinds.py",
                """
                import enum

                class RequestKind(enum.Enum):
                    ADD = "add"
                    MATCH = "match"
                """,
            )
        )
        index.add_module(
            parsed_module(
                "repro/core/engine.py",
                """
                from repro.core.kinds import RequestKind

                __all__ = ["Engine"]

                class Engine:
                    def match(self, event):
                        with self.tracer.span("attribute.probe"):
                            return self.inner(RequestKind.ADD)

                    def inner(self, kind):
                        return kind
                """,
            )
        )
        return index

    def test_string_calls(self):
        index = self.build()
        (call,) = list(index.iter_string_calls(["span"]))
        assert call.receiver == "self.tracer"
        assert call.attr == "span"
        assert call.value == "attribute.probe"
        assert call.path == "repro/core/engine.py"

    def test_classes_and_bases(self):
        index = self.build()
        kind = index.resolve_class("repro.core.kinds.RequestKind")
        assert kind.qualname == "repro.core.kinds.RequestKind"
        assert kind.bases == ["enum.Enum"]
        engine = index.resolve_class("Engine")
        assert sorted(engine.methods) == ["inner", "match"]

    def test_attr_refs_resolve_through_import_aliases(self):
        index = self.build()
        engine = index.by_modname["repro.core.engine"]
        assert engine.resolve("RequestKind.ADD") == "repro.core.kinds.RequestKind.ADD"

    def test_all_names(self):
        index = self.build()
        assert index.by_modname["repro.core.engine"].all_names == ["Engine"]

    def test_call_graph_self_edges_resolve(self):
        index = self.build()
        engine = index.by_modname["repro.core.engine"]
        match = engine.functions["repro.core.engine.Engine.match"]
        callee = index.resolve_function(match, "self.inner")
        assert callee is not None
        assert callee.qualname == "repro.core.engine.Engine.inner"
        assert callee.param_names() == ["self", "kind"]

    def test_reference_literals(self):
        index = self.build()
        index.add_reference_source(
            "tests/test_engine.py", "def test():\n    assert 'leaf.alive'\n"
        )
        assert "leaf.alive" in index.reference_literals
        assert index.reference_files == 1


class TestHierarchyQueries:
    def build(self):
        index = ProjectIndex()
        index.add_module(
            parsed_module(
                "repro/core/interfaces.py",
                """
                class TopKMatcher:
                    def match(self, event, k):
                        raise NotImplementedError

                    def match_batch(self, events, k):
                        return [self.match(e, k) for e in events]
                """,
            )
        )
        index.add_module(
            parsed_module(
                "repro/core/matcher.py",
                """
                from repro.core.interfaces import TopKMatcher

                class FXTMMatcher(TopKMatcher):
                    def match(self, event, k):
                        return []

                    def match_batch(self, events, k):
                        return []
                """,
            )
        )
        index.add_module(
            parsed_module(
                "repro/core/variant.py",
                """
                from repro.core.matcher import FXTMMatcher

                class Variant(FXTMMatcher):
                    def _match_topk(self, event, k):
                        return []
                """,
            )
        )
        return index

    def test_ancestors_nearest_first(self):
        index = self.build()
        variant = index.resolve_class("repro.core.variant.Variant")
        names = [cls.name for cls in index.ancestors_of(variant)]
        assert names == ["FXTMMatcher", "TopKMatcher"]

    def test_resolve_class_unique_basename_fallback(self):
        index = self.build()
        assert index.resolve_class("Variant").qualname == "repro.core.variant.Variant"
        assert index.resolve_class("repro.nope.Variant") is not None  # fallback
        assert index.resolve_class("NoSuchClass") is None


class TestSingleParse:
    def test_each_source_parsed_exactly_once(self, tmp_path, monkeypatch):
        """The acceptance criterion: one parse per file, analyzed or reference."""
        root = write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/a.py": "X = 1\n",
                "repro/b.py": "Y = 2\n",
            },
        )
        tests_root = tmp_path / "tests"
        tests_root.mkdir()
        (tests_root / "test_a.py").write_text("def test():\n    assert True\n")

        parses = {}
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses[filename] = parses.get(filename, 0) + 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        findings, files_checked, index = check_project(
            [root], tests_root=str(tests_root)
        )
        assert files_checked == 3
        assert index.reference_files == 1
        # Every file — analyzed and reference — parsed exactly once.
        assert parses and all(count == 1 for count in parses.values())
        assert index.parse_count == 4
