"""The analyzer stands apart from the code it checks.

fxlint parses the program; it never imports it.  Every module under
``src/repro/analysis/`` may import from ``repro.analysis`` and the
standard library, and from no other ``repro`` package, so a broken
engine module can never stop the checker from loading.
"""

import ast
from pathlib import Path

ANALYSIS = Path(__file__).resolve().parents[2] / "src" / "repro" / "analysis"


def _outside_imports(path):
    """``(line, module)`` for each import of a ``repro`` module outside
    ``repro.analysis``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
            else:
                modules = [node.module]
        else:
            continue
        for module in modules:
            inside = module == "repro.analysis" or module.startswith("repro.analysis.")
            if (module == "repro" or module.startswith("repro.")) and not inside:
                found.append((node.lineno, module))
    return found


def test_analysis_imports_nothing_else_from_repro():
    modules = sorted(ANALYSIS.glob("*.py"))
    assert len(modules) > 10
    offenders = {
        path.name: imports for path in modules if (imports := _outside_imports(path))
    }
    assert offenders == {}
