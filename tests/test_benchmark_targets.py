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

A target that resolves can still see no call, when the code calls around
the wrapped name; its metrics would then read 0 as silently.  So each
workload of `benchmarks/workloads.py` also runs for one trial with every
live target counting its calls: each must be called, except the listed
unreached ones, which must not be.
"""

import ast
import functools
import glob
import importlib
import importlib.util
import os
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")
TRACER_PY = os.path.join(BENCHMARKS, "tracer.py")
WORKLOADS_PY = os.path.join(BENCHMARKS, "workloads.py")

KNOWN_DEAD = {
    ("richowner.protocol", "_candidate_plans"),
    ("richowner.protocol", "derive_decoding_bounds"),
}

# Live targets that no workload calls: the scalar payload check (stages and
# membership use the bulk one), `total-D` rates (no workload sets them) and
# the protocol module's name of the known-profile decoder (experiments calls
# the name it imports).
UNREACHED = {
    ("richowner.graphs", "LabeledBipartiteGraph.payload_consistent"),
    ("richowner.graphs", "SplitGraph.payload_consistent"),
    ("richowner.experiments", "rates_violating_total"),
    ("richowner.protocol", "decode_known_profile"),
}


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(mod, path) for mod, path, *_ in _load(TRACER_PY, "bench_tracer").TARGETS]


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


def test_every_live_target_sees_calls(monkeypatch):
    """Wraps each live target, in table order as the tracer does, with a
    call counter, and runs every workload's config for one trial at the
    first seed of its pool."""
    calls = {}

    def counting(fn, target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)
        return wrapper

    for target in _targets():
        if target in KNOWN_DEAD:
            continue
        module, path = target
        owner, _, attr = path.rpartition(".")
        holder = _resolve(module, owner) if owner else importlib.import_module(module)
        calls[target] = 0
        monkeypatch.setattr(holder, attr, counting(getattr(holder, attr), target))
    workloads = _load(WORKLOADS_PY, "bench_workloads")
    pools = workloads.load_pools()
    experiments = importlib.import_module("richowner.experiments")
    for workload in workloads.WORKLOADS.values():
        seed = pools[workload.name]["pool"][0]["seed"]
        overrides = workloads.overrides(workload, seed, 1)
        experiments.run_experiment(experiments.ExperimentConfig.load(overrides=overrides, env={}))
    assert {target for target, count in calls.items() if not count} == UNREACHED
