"""Invariants of the source tree itself, read with `ast` without importing
it, and what importing one module of it loads."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

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


def _without_tracer_targets(path: pathlib.Path) -> str:
    """The text of a benchmark script, less any module-level `TARGETS`
    table: the tracer names its targets there only to wrap them."""
    text = path.read_text()
    lines = text.splitlines()
    for node in reversed(ast.parse(text, str(path)).body):
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TARGETS" for target in node.targets):
            del lines[node.lineno - 1:node.end_lineno]
    return "\n".join(lines)


def test_every_src_name_has_a_reader():
    """Every function, method and class defined in `src/richowner/`
    (dunders aside) is named somewhere else: elsewhere in `src/` as a name,
    an attribute or an import, in the text of `benchmarks/*.py` outside
    the tracer's `TARGETS` table (a span wraps a name, it does not read
    it) or in README.md.

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
    texts = [_without_tracer_targets(path)
             for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    words = set(re.findall(r"\w+", "\n".join(texts)))
    unread = [f"{where} {name}" for where, name in defined
              if name not in read and name not in words]
    assert unread == []


@pytest.mark.parametrize("module", ["richowner.specs", "richowner.bits"])
def test_leaf_module_loads_nothing_else(module):
    """A fresh interpreter that imports one pure-Python module has loaded
    neither numpy nor any other richowner module: the package root imports
    nothing."""
    code = (f"import json, sys; import {module}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'richowner'))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert json.loads(out) == ["richowner", module]
