"""Tests for the benchmark's own code (not part of the richowner suite).

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

from richowner.experiments import validate_report  # noqa: E402  (child put src on the path)


# -- spans -----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] -> 1 [1,4] -> 3 [2,3];  0 -> 2 [5,6]
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 3.0])
    parent = np.array([-1, 0, 0, 1])
    assert tracer.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nesting_and_layer_self_time():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    inner = t.wrap(lambda: [1, 2, 3], "oracles.candidates", count=len)

    def body():
        t.mark_trial(0)
        inner()
        t.mark_trial(1)
        inner()
        return "done"

    outer = t.wrap(body, "experiments.run")
    assert outer() == "done"
    assert t.parent.tolist() == [-1, 0, 0]
    assert t.trial.tolist() == [-1, 0, 1]
    m = tracer.layer_metrics(t.as_spans())
    # clock: run opens 0, trial 0 at 1, candidates 2..3, trial 1 at 4,
    # candidates 5..6, run closes 7.
    assert m["oracles.candidates_s"] == 2.0
    assert m["oracles.candidates_calls"] == 2
    assert m["oracles.candidates_returned"] == 6
    assert m["experiments.self_s"] == 5.0
    assert m["experiments.trial_samples"] == 2
    assert m["experiments.trial_p50_s"] == 3.0


# -- tail percentile ---------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(11, 9), (50, 80), (100, 90), (200, 95)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]
    got_pct, value = tracer.tail_percentile(samples)
    assert got_pct == pct
    assert sum(s > value for s in samples) >= 10
    # one percentile higher would leave fewer than ten beyond
    rank = -(-(pct + 1) * n // 100)
    assert n - rank < 10


def test_tail_percentile_without_ten_beyond_is_the_maximum():
    assert tracer.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


# -- output check ------------------------------------------------------------------

def _zero_trial_report(tmp_path, workload="membership-q3", seed=0, j=0):
    entry = wl.pool_entry(wl.load_pools(), workload, seed, j)
    path = str(tmp_path / "report.json")
    child.run(path, wl.overrides(wl.WORKLOADS[workload], entry["seed"], 0))
    return entry, path


def test_child_stamps_carry_cpu_time_at_the_end_of_the_run(tmp_path):
    entry = wl.pool_entry(wl.load_pools(), "membership-q3", 0, 0)
    stamps = child.run(str(tmp_path / "report.json"),
                       wl.overrides(wl.WORKLOADS["membership-q3"], entry["seed"], 0))
    assert stamps["ran"] <= stamps["emitted"]
    assert stamps["ran_cpu"] > 0.0


def test_recorded_digest_accepts_the_report(tmp_path):
    entry, path = _zero_trial_report(tmp_path)
    assert run.check_report(path, entry["setup_digest"], validate_report) is None


def test_perturbed_report_is_caught(tmp_path):
    entry, path = _zero_trial_report(tmp_path)
    with open(path) as fh:
        text = fh.read()
    # a well-formed report that differs in one value
    perturbed = text.replace('"max_retries": 10', '"max_retries": 11')
    assert perturbed != text
    with open(path, "w") as fh:
        fh.write(perturbed)
    error = run.check_report(path, entry["setup_digest"], validate_report)
    assert error is not None and "digest" in error


def test_malformed_report_fails_validation(tmp_path):
    entry, path = _zero_trial_report(tmp_path)
    with open(path) as fh:
        obj = json.load(fh)
    del obj["aggregates"]
    with open(path, "w") as fh:
        json.dump(obj, fh)
    error = run.check_report(path, entry["setup_digest"], validate_report)
    assert error is not None and "invalid report" in error


# -- seeds -------------------------------------------------------------------------

def test_seed_argument_reaches_the_config(tmp_path, monkeypatch):
    pools = wl.load_pools()
    for name, workload in wl.WORKLOADS.items():
        starts = {wl.pool_start(name, seed, len(pools[name]["pool"])) for seed in range(20)}
        assert len(starts) > 5, name
        for seed in (1, 2):
            assert wl.pool_entry(pools, name, seed, 0) == wl.pool_entry(pools, name, seed, 0)
    # The experiment seed comes from the override even when RICHOWNER_SEED is set.
    monkeypatch.setenv("RICHOWNER_SEED", "424242")
    entry, path = _zero_trial_report(tmp_path, seed=7, j=3)
    with open(path) as fh:
        config = json.load(fh)["config"]
    assert config["seed"] == entry["seed"]
    assert config["trials"] == 0


def test_pool_walk_changes_the_experiment_seed():
    pools = wl.load_pools()
    seeds = [wl.pool_entry(pools, "membership-q3", 5, j)["seed"] for j in range(4)]
    assert len(set(seeds)) == 4


# -- traced and untraced processes -------------------------------------------------

def test_untraced_child_loads_no_wrapper(tmp_path):
    _zero_trial_report(tmp_path)
    import richowner.experiments as experiments
    import richowner.protocol as protocol

    for module in (experiments, protocol):
        for value in vars(module).values():
            assert not hasattr(value, "__traced__"), value
    assert "tracer" not in child.__dict__


def test_traced_child_keeps_the_report_and_records_spans(tmp_path):
    entry = wl.pool_entry(wl.load_pools(), "membership-q3", 0, 0)
    report, spans_path = str(tmp_path / "r.json"), str(tmp_path / "s.npz")
    kv = [f"{k}={v}" for k, v in
          wl.overrides(wl.WORKLOADS["membership-q3"], entry["seed"], 0).items()]
    subprocess.run([sys.executable, os.path.join(BENCH, "traced_child.py"),
                    report, spans_path, *kv], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    assert run.check_report(report, entry["setup_digest"], validate_report) is None
    spans = tracer.load_spans(spans_path)
    assert spans["meta"]["skipped"] == []
    names = {spans["meta"]["names"][i] for i in spans["name_id"]}
    assert {"experiments.run", "scenarios.members"} <= names


# -- reference lane ----------------------------------------------------------------

def _imported_richowner(env) -> str:
    out = subprocess.run([sys.executable, "-c", "import child, richowner; print(richowner.__file__)"],
                         cwd=BENCH, env=env, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def test_reference_child_runs_the_frozen_sources(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != child.SRC_ENV}
    assert _imported_richowner(env).startswith(os.path.join(ROOT, "src") + os.sep)
    env[child.SRC_ENV] = run.REFERENCE_SRC
    assert _imported_richowner(env).startswith(run.REFERENCE_SRC + os.sep)
    # The reference reproduces the recorded reports.
    entry = wl.pool_entry(wl.load_pools(), "known-profile-q2", 3, 0)
    report = str(tmp_path / "r.json")
    kv = [f"{k}={v}" for k, v in
          wl.overrides(wl.WORKLOADS["known-profile-q2"], entry["seed"], 0).items()]
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), report, *kv],
                   check=True, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    assert run.check_report(report, entry["setup_digest"], validate_report) is None


def test_reference_speed_cancels_host_drift():
    # The host slows from pair to pair; both twins of a pair slow alike, so
    # the reading is the recorded rate throughout.
    assert run.at_reference_speed([(8.0, 8.0), (6.0, 6.0), (7.0, 7.0)], 10.0) == pytest.approx(10.0)
    # A program twice as fast as the reference reads twice the recorded rate;
    # a set-up time twice as long reads twice the recorded time.
    assert run.at_reference_speed([(12.0, 6.0), (16.0, 8.0)], 10.0) == pytest.approx(20.0)
    assert run.at_reference_speed([(0.4, 0.2)], 0.25) == pytest.approx(0.5)
    # The median over pairs: one pair disturbed on one side does not move it.
    assert run.at_reference_speed([(8.0, 8.0), (6.0, 6.0), (9.0, 6.0)], 10.0) == pytest.approx(10.0)
    assert run.at_reference_speed([(1.0, 0.0)], 10.0) == 0.0
    assert set(wl.REFERENCE_SPEED) == set(wl.WORKLOADS)


def test_side_by_side_runs_both_lanes():
    ours, theirs = run.side_by_side(lambda reference: "reference" if reference else "program",
                                    stop=lambda: None)
    assert (ours, theirs) == ("program", "reference")


def test_program_lane_error_stops_the_reference_lane():
    import threading
    stopped = threading.Event()

    def lane(reference):
        if reference:
            stopped.wait(30)      # a lane that runs until it is stopped
            return "stopped" if stopped.is_set() else "ran on"
        raise RuntimeError("program lane failed")

    with pytest.raises(RuntimeError):
        run.side_by_side(lane, stop=stopped.set)
    assert stopped.is_set()


# -- BENCHMARK.json agrees with what the runner prints -----------------------------

def test_benchmark_json_names_every_metric_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    for m in spec["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    printed = set(run.per_layer_metrics(tracer.Tracer().as_spans(), 0.0, 0.0, 0.0))
    assert {m["name"] for m in spec["per_layer"]} == printed
    for m in spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
