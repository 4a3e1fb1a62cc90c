"""Invariants of the source tree itself, read with `ast` without importing it."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "richowner").glob("*.py"))


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


def test_every_src_name_has_a_reader():
    """Every function, method and class defined in `src/richowner/`
    (dunders aside) is named somewhere else: elsewhere in `src/` as a name,
    an attribute or an import, in the text of `benchmarks/*.py` (so the
    tracer's dotted target strings count) or in README.md.

    The check matches by name, so a definition that shares its name with
    one that is read (two classes' methods of one name, say) is not caught.
    """
    defined, read = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    texts = [path.read_text() for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    words = set(re.findall(r"\w+", "\n".join(texts)))
    unread = [f"{where} {name}" for where, name in defined
              if name not in read and name not in words]
    assert unread == []
