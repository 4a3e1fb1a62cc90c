"""Every benchmark workload still produces its recorded report.

Runs the first pool entry of each workload in `benchmarks/digests.json`
in-process and compares the sha256 of its JSON report, so a change that
alters a report is caught without running the benchmark itself.  Reads
only that file and `benchmarks/workloads.py`.
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


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_first_pool_entry_matches_recorded_digest(name):
    workload = wl.WORKLOADS[name]
    entry = wl.load_pools()[name]["pool"][0]
    config = ExperimentConfig.load(
        overrides=wl.overrides(workload, entry["seed"], workload.trials), env={})
    assert wl.report_digest(report_json_text(run_experiment(config))) == entry["digest"]
