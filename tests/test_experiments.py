import hashlib
import json
import random

import pytest

from richowner.experiments import (
    ConfigError,
    ExperimentConfig,
    emit_report,
    report_json_text,
    run_experiment,
    validate_report,
)
from richowner.oracles import CountingOracle


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

    def test_bad_decoder_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(**{**BASE, "decoder": "wat"}))

    def test_membership_needs_enumerable_scenario(self):
        cfg = ExperimentConfig(**{**BASE, "scenario": "planted:n=8",
                                  "oracle": "toy:L=12,T=200"})
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestEmission:
    def test_json_round_trip(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(small_report, "json", str(path))
        reparsed = json.loads(path.read_text())
        assert reparsed == small_report.to_json()

    def test_csv_row_count(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(small_report, "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + small_report.aggregates["trials"]
        assert lines[0].startswith("trial,seed,rates,status")

    def test_schema_validates(self, small_report):
        assert validate_report(small_report.to_json()) == []

    def test_schema_catches_missing_keys(self, small_report):
        broken = small_report.to_json()
        del broken["aggregates"]
        assert validate_report(broken)

    def test_bad_path_surfaces_filename(self, small_report):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_report(small_report, "json", "/no/such/dir/report.json")
