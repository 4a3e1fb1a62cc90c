"""Every span of the benchmark tracer still finds its target, and every
richowner name that a benchmark script imports still exists.

`benchmarks/tracer.py` wraps richowner functions by name and silently
skips a name the code no longer has, so a rename would zero its per-layer
metrics without failing anything.  Reads the tracer's TARGETS table; does
not change the file.  The scripts' own imports (`benchmarks/*.py`, not
the frozen sources under `benchmarks/reference/`) are read with `ast`,
without running the scripts.

Two targets name functions that profile search removed; their spans can
only be re-aimed by a change to the benchmark itself, so they are listed
here as known-dead, and a test fails once either resolves again or leaves
the table, so that the list cannot go stale.
"""

import ast
import functools
import glob
import importlib
import importlib.util
import os

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")
TRACER_PY = os.path.join(BENCHMARKS, "tracer.py")

KNOWN_DEAD = {
    ("richowner.protocol", "_candidate_plans"),
    ("richowner.protocol", "derive_decoding_bounds"),
}


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, *_ in module.TARGETS]


def _resolve(module, path):
    return functools.reduce(getattr, path.split("."), importlib.import_module(module))


@pytest.mark.parametrize("module, path",
                         [t for t in _targets() if t not in KNOWN_DEAD])
def test_tracer_target_resolves(module, path):
    _resolve(module, path)


@pytest.mark.parametrize("module, path", sorted(KNOWN_DEAD))
def test_known_dead_target_is_still_listed_and_dead(module, path):
    assert (module, path) in _targets()
    with pytest.raises(AttributeError):
        _resolve(module, path)


def _script_imports():
    """(module, name) for each `from richowner... import name` in the
    benchmark scripts, plus the seed function that the tracer replaces."""
    found = {("richowner.experiments", "derive_seed")}
    for path in glob.glob(os.path.join(BENCHMARKS, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found.update((node.module, alias.name) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "richowner"
                     for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module, name", _script_imports())
def test_benchmark_script_import_resolves(module, name):
    _resolve(module, name)
