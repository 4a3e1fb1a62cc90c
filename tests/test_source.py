"""Invariants of the source tree itself, read with `ast` without importing it."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "richowner")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    """Every import is at module level, so an import cycle between modules
    fails when the package loads instead of hiding in a function body."""
    tree = ast.parse(path.read_text(), str(path))
    nested = [f"{path.name}:{node.lineno} in {func.name}()"
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
