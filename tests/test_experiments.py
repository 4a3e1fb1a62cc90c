import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import richowner

from richowner import experiments
from richowner.cli import main
from richowner.experiments import (
    ConfigError,
    ExperimentConfig,
    report_json_text,
    report_text,
    run_experiment,
    validate_report,
)
from richowner.oracles import CorrelationSet, CountingOracle

from test_benchmark_digests import wl  # benchmarks/workloads.py


BASE = dict(
    scenario="collinear:q=2", oracle="counting", decoder="membership",
    rates="profile+2", graphs="pipeline:delta=1/2", trials=8, seed=17,
)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(ExperimentConfig(**BASE))


class TestConfig:
    def test_load_file_with_overrides_and_env(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# demo config\nscenario=collinear:q=2\ntrials=5\nseed=3\n"
        )
        cfg = ExperimentConfig.load(
            str(path), overrides={"trials": "9"}, env={"RICHOWNER_SEED": "42"}
        )
        assert cfg.trials == 9
        assert cfg.seed == 42
        assert cfg.scenario == "collinear:q=2"

    def test_unknown_key_names_the_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenaro=collinear:q=2\n")
        with pytest.raises(ConfigError, match="scenaro"):
            ExperimentConfig.load(str(path), env={})

    def test_env_ignored_when_unset(self, tmp_path):
        cfg = ExperimentConfig.load(None, overrides={"seed": "5"}, env={})
        assert cfg.seed == 5

    @pytest.mark.parametrize("key", ["trials", "max_retries", "step_budget"])
    def test_negative_count_names_the_key(self, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig.load(None, overrides={key: "-2"}, env={})
        assert getattr(ExperimentConfig.load(None, overrides={key: "0"}, env={}), key) == 0


class TestRunExperiment:
    def test_zero_trials_empty_report(self):
        report = run_experiment(ExperimentConfig(**{**BASE, "trials": 0}))
        assert report.aggregates["trials"] == 0
        assert report.aggregates["success_rate"] is None
        assert report.rows == []
        assert validate_report(report.to_json()) == []

    def test_byte_identical_reports(self):
        r1 = run_experiment(ExperimentConfig(**BASE))
        r2 = run_experiment(ExperimentConfig(**BASE))
        assert report_json_text(r1) == report_json_text(r2)

    def test_membership_success_recorded(self, small_report):
        agg = small_report.aggregates
        assert agg["trials"] == 8
        assert agg["successes"] + agg["wrong_answers"] + agg["failures"] == 8
        assert agg["mean_survivors"] is not None

    def test_staged_decoder_runs(self):
        cfg = ExperimentConfig(**{**BASE, "decoder": "known-profile", "trials": 4})
        report = run_experiment(cfg)
        assert report.aggregates["trials"] == 4
        assert report.aggregates["successes"] >= 3

    def test_known_profile_trial_computes_one_profile(self, monkeypatch):
        calls = []
        profile = CountingOracle.profile
        monkeypatch.setattr(CountingOracle, "profile", lambda self, triple=None:
                            calls.append(triple) or profile(self, triple))
        cfg = ExperimentConfig(**{**BASE, "decoder": "known-profile",
                                  "graphs": "binning", "trials": 5, "seed": 3})
        text = report_json_text(run_experiment(cfg))
        assert len(calls) == 5
        # sha256 of the report as produced with two profiles per trial
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a847c3d10a688a0fb823eace53d3aac8c6f99d426803a54d6451bfedf50b7ce6")

    @pytest.mark.parametrize("decoder", ["membership", "known-profile", "full"])
    def test_counting_experiment_projects_the_set_once(self, decoder, monkeypatch):
        # The profile belongs to the set: 7 projection counts per experiment,
        # however many trials ask for it.
        subsets = []
        proj_count = CorrelationSet.proj_count
        monkeypatch.setattr(CorrelationSet, "proj_count", lambda self, subset:
                            subsets.append(subset) or proj_count(self, subset))
        cfg = ExperimentConfig(**{**BASE, "decoder": decoder, "graphs": "binning",
                                  "trials": 6})
        assert run_experiment(cfg).aggregates["trials"] == 6
        assert len(subsets) == 7

    def test_planted_scenario_with_toy_oracle(self):
        cfg = ExperimentConfig(
            scenario="planted:n=8", oracle="toy:L=12,T=200",
            decoder="known-profile", rates="profile+4",
            graphs="pipeline:delta=1/2", trials=3, seed=5, slack=4,
        )
        report = run_experiment(cfg)
        assert report.aggregates["successes"] == 3

    def test_binning_graphs(self):
        cfg = ExperimentConfig(**{**BASE, "graphs": "binning", "trials": 5})
        report = run_experiment(cfg)
        assert all(g["kind"] == "binning" and g["D"] == 1
                   for g in report.graph_summaries)

    def test_full_decoder_takes_a_rate_past_int64(self):
        # Profile search clamps each rate before it meets an array.
        cfg = ExperimentConfig(**{**BASE, "decoder": "full", "rates": f"{10**20},1,1",
                                  "trials": 3})
        assert run_experiment(cfg).aggregates["successes"] == 3

    @pytest.mark.parametrize("decoder", ["known-profile", "full"])
    def test_staged_decoders_past_width_16(self, decoder, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "triples.txt"
        path.write_text("".join(
            " ".join(format(rng.randrange(1 << 17), "x") for _ in range(3)) + "\n"
            for _ in range(40)))
        cfg = ExperimentConfig(**{**BASE, "scenario": f"file:path={path},n=17",
                                  "graphs": "binning", "decoder": decoder,
                                  "trials": 3})
        aggregates = run_experiment(cfg).aggregates
        assert aggregates["trials"] == 3 and aggregates["wrong_answers"] == 0
        assert aggregates["successes"] >= 1

    def test_bad_decoder_rejected(self, monkeypatch):
        def unbuilt(spec):
            raise AssertionError(f"built {spec!r}")
        # refused before the scenario's set is built
        monkeypatch.setattr(experiments, "named_correlation_set", unbuilt)
        with pytest.raises(ConfigError, match="unknown decoder 'wat'"):
            run_experiment(ExperimentConfig(**{**BASE, "decoder": "wat"}))

    def test_membership_needs_enumerable_scenario(self):
        cfg = ExperimentConfig(**{**BASE, "scenario": "planted:n=8",
                                  "oracle": "toy:L=12,T=200"})
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestEmission:
    def test_json_round_trip(self, small_report):
        reparsed = json.loads(report_text(small_report.to_json(), "json"))
        assert reparsed == small_report.to_json()

    def test_csv_row_count(self, small_report):
        lines = report_text(small_report.to_json(), "csv").strip().splitlines()
        assert len(lines) == 1 + small_report.aggregates["trials"]
        assert lines[0].startswith("trial,seed,rates,status")

    def test_schema_validates(self, small_report):
        assert validate_report(small_report.to_json()) == []

    def test_schema_catches_missing_keys(self, small_report):
        broken = small_report.to_json()
        del broken["aggregates"]
        assert validate_report(broken) == ["$: missing key 'aggregates'"]

    @pytest.mark.parametrize("break_report, problems", [
        (lambda r: r.update(version=1), ["$.version: expected string"]),
        (lambda r: r.update(graphs={}), ["$.graphs: expected array"]),
        (lambda r: r["trials"][1].pop("correct"), ["$.trials[1]: missing key 'correct'"]),
        (lambda r: r["trials"].__setitem__(0, 5), ["$.trials[0]: expected object"]),
        (lambda r: r.update(config=[]), ["$.config: expected object"]),
        (lambda r: (r.pop("config"), r["aggregates"].pop("mean_steps"),
                    r.update(trials="x")),
         ["$: missing key 'config'", "$.aggregates: missing key 'mean_steps'",
          "$.trials: expected array"]),
        (lambda r: r["trials"][0].update(correct="yes"),
         ["$.trials[0].correct: expected boolean, got 'yes'"]),
        (lambda r: r["trials"][0].update(correct=1),
         ["$.trials[0].correct: expected boolean, got 1"]),
        (lambda r: r["trials"][1].update(steps=True, survivors="2"),
         ["$.trials[1].steps: expected integer, got True",
          "$.trials[1].survivors: expected integer or null, got '2'"]),
    ], ids=["version-type", "graphs-type",
            "trial-without-correct", "trial-type", "config-type", "in-order",
            "trial-text-bool", "trial-int-bool", "trial-bool-int"])
    def test_schema_names_each_fault(self, small_report, break_report, problems):
        broken = small_report.to_json()
        break_report(broken)
        assert validate_report(broken) == problems

    def test_to_json_returns_a_copy(self, small_report):
        first = small_report.to_json()
        expected = copy.deepcopy(first)
        first["aggregates"].pop("mean_steps")
        first["aggregates"]["payload_bits"].clear()
        first["graphs"][0].clear()
        first["graphs"].clear()
        assert small_report.to_json() == expected

    def test_schema_needs_an_object(self):
        assert validate_report([]) == ["$: expected object"]

    def test_bad_path_surfaces_filename(self, capsys):
        assert main(["experiment", "--set", "trials=0",
                     "--out", "/no/such/dir/report.json"]) == 2
        assert "no/such/dir" in capsys.readouterr().err


WATCHED = ("_hashlib", "numpy.ma")


def _modules_loaded_by(*configs) -> list:
    """Which of WATCHED a fresh interpreter loads after `import numpy`, by
    importing richowner and running each config (override dicts for
    ExperimentConfig.load) to its report.  Skips when importing numpy
    already loads one of them."""
    code = textwrap.dedent(f"""
        import json
        import sys
        import numpy
        before = [m for m in {WATCHED!r} if m in sys.modules]
        from richowner.experiments import ExperimentConfig, report_json_text, run_experiment
        for overrides in {configs!r}:
            config = ExperimentConfig.load(overrides=overrides, env={{}})
            report_json_text(run_experiment(config))
        print(json.dumps([before, [m for m in {WATCHED!r} if m in sys.modules]]))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(richowner.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    before, after = json.loads(out)
    if before:
        pytest.skip(f"importing numpy already loads {before}")
    return after


def test_counting_run_leaves_numpy_ma_unloaded():
    """Importing numpy.ma costs about 15 ms of CPU per process, and a
    counting run has no use for it."""
    assert "numpy.ma" not in _modules_loaded_by({"scenario": "collinear:q=2", "trials": "0"})


def test_staged_decoders_leave_numpy_ma_unloaded():
    """Plain np.unique imports numpy.ma under numpy 2.4; a known-profile
    and a full decode use none."""
    known = {"scenario": "collinear:q=2", "decoder": "known-profile", "trials": "1"}
    full = {"scenario": "planted:n=8", "oracle": "toy:L=12,T=200", "decoder": "full",
            "rates": "profile+4", "slack": "4", "trials": "1", "seed": "10"}
    assert "numpy.ma" not in _modules_loaded_by(known, full)


def test_benchmark_workloads_load_no_unused_module():
    """Each benchmark workload at its first pool entry, with its trials:
    richowner only calls blake2b, which needs no OpenSSL (_hashlib maps
    libcrypto, about 3.6 MB of peak RSS), and no run uses numpy.ma."""
    pools = wl.load_pools()
    configs = [wl.overrides(w, pools[name]["pool"][0]["seed"], w.trials)
               for name, w in sorted(wl.WORKLOADS.items())]
    assert all(int(c["trials"]) >= 1 for c in configs)
    assert _modules_loaded_by(*configs) == []
