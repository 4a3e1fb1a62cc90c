"""The benchmark tracer's oracle and graph spans still find their targets.

`benchmarks/tracer.py` wraps richowner functions by name and silently
skips a name the code no longer has, so a rename would zero its per-layer
metrics without failing anything.  Reads the tracer's TARGETS table; does
not change the file.
"""

import functools
import importlib
import importlib.util
import os

import pytest

TRACER_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, *_ in module.TARGETS
            if mod in ("richowner.oracles", "richowner.graphs")]


@pytest.mark.parametrize("module, path", _targets())
def test_tracer_target_resolves(module, path):
    functools.reduce(getattr, path.split("."), importlib.import_module(module))
