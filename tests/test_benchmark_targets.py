"""Every span of the benchmark tracer still finds its target.

`benchmarks/tracer.py` wraps richowner functions by name and silently
skips a name the code no longer has, so a rename would zero its per-layer
metrics without failing anything.  Reads the tracer's TARGETS table; does
not change the file.

Two targets name functions that profile search removed; their spans can
only be re-aimed by a change to the benchmark itself, so they are listed
here as known-dead, and a test fails once either resolves again or leaves
the table, so that the list cannot go stale.
"""

import functools
import importlib
import importlib.util
import os

import pytest

TRACER_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks", "tracer.py")

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
