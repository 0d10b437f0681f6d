"""Static layering rules over the package source, checked with ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coopcache"

ENVIRONMENT = ("core", "interface", "traffic", "episode")
UPPER = {"policies", "harness", "dataset", "reward", "verification", "cli"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules ``tree`` imports from, relative or absolute."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("coopcache." if node.level else "") + (node.module or "")
            dotted += [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("coopcache.")}


def _json_load_callers(tree: ast.Module) -> list[str | None]:
    """The innermost enclosing function of each ``json.load(...)`` call."""
    callers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "json.load":
                callers.append(where)
            visit(child, where)

    visit(tree, None)
    return callers


@pytest.mark.parametrize("module", ENVIRONMENT)
def test_the_environment_layer_imports_no_upper_layer(module):
    assert _package_imports(_tree(PACKAGE / f"{module}.py")) & UPPER == set()


def test_json_input_is_read_only_by_core_read_json():
    readers = [(path.stem, caller) for path in sorted(PACKAGE.glob("*.py"))
               for caller in _json_load_callers(_tree(path))]
    assert readers == [("core", "read_json")]
