"""Every benchmark workload still produces its recorded reports.

Runs every pool entry of each workload in `benchmarks/digests.json`
in-process, once with the workload's trials and once with none, and
compares the sha256 of each JSON report with the entry's `digest` and
`setup_digest`, so a change that alters a report is caught without running
the benchmark itself.  Reads only that file and `benchmarks/workloads.py`.
"""

import importlib.util
import os
import sys

import pytest

from richowner.experiments import ExperimentConfig, report_json_text, run_experiment

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "benchmarks", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()
POOL = [(name, entry) for name in sorted(wl.WORKLOADS)
        for entry in wl.load_pools()[name]["pool"]]


@pytest.mark.parametrize("digest", ["digest", "setup_digest"])
@pytest.mark.parametrize("name, entry", POOL,
                         ids=[f"{name}-seed{entry['seed']}" for name, entry in POOL])
def test_pool_entry_matches_recorded_digests(name, entry, digest):
    workload = wl.WORKLOADS[name]
    trials = workload.trials if digest == "digest" else 0
    config = ExperimentConfig.load(
        overrides=wl.overrides(workload, entry["seed"], trials), env={})
    assert wl.report_digest(report_json_text(run_experiment(config))) == entry[digest]
