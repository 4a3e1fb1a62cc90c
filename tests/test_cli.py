import json

import pytest

from richowner.cli import main
from richowner.experiments import ExperimentConfig, emit_report, run_experiment
from richowner.graphs import load_graph


def run_cli(*argv):
    return main(list(argv))


class TestBuildAndVerify:
    def test_random_graph_build_and_extractor_check(self, tmp_path):
        out = tmp_path / "g.bin"
        assert run_cli("build-graph", "--kind", "random", "--n", "4", "--k", "2",
                       "--epsilon", "1/4", "--seed", "3", "--out", str(out)) == 0
        g = load_graph(str(out))
        assert g.n == 4 and g.m == 2 and g.degree == 256
        report = tmp_path / "check.json"
        code = run_cli("verify-graph", "--graph", str(out), "--check", "extractor",
                       "--epsilon", "1/4", "--family", "sampled:size=4,count=50",
                       "--out", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["passed"] and obj["checked"] == 100

    def test_pipeline_descriptor_and_richness(self, tmp_path):
        out = tmp_path / "g.json"
        rec = tmp_path / "build.txt"
        assert run_cli("build-graph", "--kind", "pipeline", "--n", "4", "--k", "2",
                       "--delta", "7/10", "--seed", "5", "--out", str(out),
                       "--report", str(rec)) == 0
        assert "gamma=" in rec.read_text()
        report = tmp_path / "rich.json"
        code = run_cli("verify-graph", "--graph", str(out), "--check", "richness",
                       "--delta", "7/10", "--k", "2",
                       "--family", "all-of-size:size=4", "--out", str(report))
        assert code == 0
        assert json.loads(report.read_text())["passed"]


class TestHashAuditAndProfile:
    def test_hash_audit(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run_cli("hash-audit", "--n", "16", "--s", "3", "--epsilon", "1/10",
                       "--trials", "100", "--seed", "2", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["t"] == 480 and obj["below_target"] == 0

    def test_profile_collinear(self, capsys):
        assert run_cli("profile", "--scenario", "collinear:q=2") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["members"] == 480
        assert obj["profile"]["ABC"] == 9

    def test_profile_dms(self, capsys):
        assert run_cli("profile", "--scenario", "dms:p000=1/2,p111=1/2",
                       "--n", "4") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["entropy_profile"]["ABC"] == 4.0


class TestEncodeDecode:
    def test_round_trip(self, tmp_path):
        paths = {}
        for sender, k in (("A", "3"), ("B", "4"), ("C", "4")):
            p = tmp_path / f"g{sender}.json"
            assert run_cli("build-graph", "--kind", "pipeline", "--n", "4",
                           "--k", k, "--delta", "1/2", "--seed", f"1{k}",
                           "--out", str(p)) == 0
            paths[sender] = p
        from richowner.cli import _load_graph_any
        from richowner.oracles import named_correlation_set
        from richowner.protocol import encode
        from richowner.rng import derive_seed

        S = named_correlation_set("collinear:q=2")
        triple = S.triple_at(123)
        graphs = [_load_graph_any(str(paths[s])) for s in "ABC"]
        cws = [
            encode(graphs[i], triple[i], None, derive_seed(6, i), "ABC"[i])
            for i in range(3)
        ]
        cw_path = tmp_path / "cws.json"
        cw_path.write_text(json.dumps([c.to_json() for c in cws]))
        out = tmp_path / "decoded.json"
        code = run_cli(
            "decode", "--codewords", str(cw_path),
            "--graphs", ",".join(str(paths[s]) for s in "ABC"),
            "--scenario", "collinear:q=2", "--decoder", "membership",
            "--out", str(out),
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["status"] == "ok"
        assert obj["triple_hex"] == [x.hex() for x in triple]

    def test_encode_writes_codeword(self, tmp_path):
        g = tmp_path / "g.bin"
        run_cli("build-graph", "--kind", "binning", "--n", "4", "--k", "3",
                "--seed", "7", "--out", str(g))
        out = tmp_path / "cw.json"
        assert run_cli("encode", "--graph", str(g), "--input", "a", "--width", "4",
                       "--seed", "9", "--scheme", "4,3,1/16",
                       "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["payload_bits"] == 3
        assert obj["tag"]


class TestExperimentAndReport:
    def test_experiment_to_report_conversion(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario=collinear:q=2\noracle=counting\ndecoder=membership\n"
            "rates=profile+2\ngraphs=binning\ntrials=6\nseed=11\n"
        )
        out = tmp_path / "report.json"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["aggregates"]["trials"] == 6
        csv_out = tmp_path / "report.csv"
        assert run_cli("report", "--input", str(out), "--format", "csv",
                       "--out", str(csv_out)) == 0
        assert len(csv_out.read_text().strip().splitlines()) == 7

    def test_experiment_override(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("experiment", "--set", "scenario=collinear:q=2",
                       "--set", "graphs=binning", "--set", "trials=2",
                       "--set", "seed=3", "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["trials"] == 2

    def test_error_reported_cleanly(self, capsys):
        assert run_cli("experiment", "--set", "bogus=1") == 2
        assert "bogus" in capsys.readouterr().err


@pytest.fixture
def decode_inputs(tmp_path):
    g = tmp_path / "g.bin"
    assert run_cli("build-graph", "--kind", "binning", "--n", "4", "--k", "3",
                   "--seed", "7", "--out", str(g)) == 0
    cws = tmp_path / "cws.json"
    cws.write_text("[]")
    desc = tmp_path / "desc.json"
    desc.write_text('{"n": 4, "k": 2, "seed": 1}')
    return str(g), str(cws), str(desc)


@pytest.mark.parametrize("argv, key", [
    (["profile", "--scenario", "collinear"], "'q'"),
    (["experiment", "--set", "scenario=collinear"], "'q'"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor",
      "--family", "sampled:count=3"], "'size'"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor",
      "--family", "all-of-size"], "'size'"),
    (["decode", "--codewords", "{cws}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2", "--decoder", "known-profile",
      "--rates", "1,2"], "rates '1,2'"),
    (["experiment", "--set", "graphs=pipeline:detla=1/2", "--set", "trials=1"],
     "'detla'"),
    (["encode", "--graph", "{desc}", "--input", "a", "--width", "4"], "'kind'"),
], ids=["profile-scenario", "experiment-scenario", "family-sampled",
        "family-all-of-size", "decode-rates", "graphs-typo", "descriptor-kind"])
def test_bad_spec_is_a_clean_error(argv, key, decode_inputs, capsys):
    g, cws, desc = decode_inputs
    capsys.readouterr()
    assert run_cli(*(a.format(g=g, cws=cws, desc=desc) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_report_csv_matches_experiment_csv(tmp_path):
    config = ["--set", "scenario=collinear:q=2", "--set", "graphs=binning",
              "--set", "trials=4", "--set", "seed=5"]
    report, direct, converted = (tmp_path / name for name in ("r.json", "e.csv", "r.csv"))
    assert run_cli("experiment", *config, "--out", str(report)) == 0
    assert run_cli("experiment", *config, "--format", "csv", "--out", str(direct)) == 0
    assert run_cli("report", "--input", str(report), "--format", "csv",
                   "--out", str(converted)) == 0
    assert converted.read_bytes() == direct.read_bytes()


def test_experiment_csv_without_out_goes_to_stdout(tmp_path, capsys):
    overrides = {"scenario": "collinear:q=2", "graphs": "binning", "trials": "4",
                 "seed": "5"}
    capsys.readouterr()
    assert run_cli("experiment", *(f"--set={k}={v}" for k, v in overrides.items()),
                   "--format", "csv") == 0
    printed = capsys.readouterr().out
    path = tmp_path / "e.csv"
    emit_report(run_experiment(ExperimentConfig.load(None, overrides)), "csv", str(path))
    assert printed.encode() == path.read_bytes()
