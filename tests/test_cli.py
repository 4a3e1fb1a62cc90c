import json

import pytest

from richowner.bits import BitString
from richowner.cli import main
from richowner.experiments import ExperimentConfig, report_text, run_experiment
from richowner.graphs import load_graph
from richowner.protocol import encode


def run_cli(*argv):
    return main(list(argv))


# Audit and construction artifacts as written before their serializers were
# derived from the report dataclasses; the bytes must not change.
EXTRACTOR_AUDIT = """\
{
  "certified": false,
  "checked": 6,
  "delta": null,
  "epsilon": "1/4",
  "failures": [
    {
      "B_descriptor": "0,8,9,13",
      "k_prime": 1,
      "worst_error": "1/2"
    },
    {
      "B_descriptor": "0,8,9,13",
      "k_prime": 2,
      "worst_error": "1/2"
    }
  ],
  "graph_id": "abfc878ff0581e64",
  "k": 3,
  "kind": "prefix-extractor",
  "min_rich_fraction": null,
  "mode": "sampled",
  "notes": [],
  "passed": false,
  "worst_error": "1/2"
}
"""

RICHNESS_AUDIT = """\
{
  "certified": false,
  "checked": 3,
  "delta": "1/2",
  "epsilon": null,
  "failures": [],
  "graph_id": "abfc878ff0581e64",
  "k": 2,
  "kind": "rich-owner",
  "min_rich_fraction": "1/2",
  "mode": "sampled",
  "notes": [],
  "passed": true,
  "worst_error": null
}
"""

BUILD_RECORD = """\
n=4
k=2
delta=7/10
epsilon=49/200
D=512
ell=11943
gamma=18
retries=0
verified_B_count=130358
worst_violation=21/512
"""


class TestBuildAndVerify:
    @pytest.mark.parametrize("check, flags, code, golden", [
        ("extractor", ["--epsilon", "1/4"], 1, EXTRACTOR_AUDIT),
        ("richness", ["--k", "2", "--delta", "1/2"], 0, RICHNESS_AUDIT),
    ])
    def test_audit_json_bytes(self, check, flags, code, golden, tmp_path):
        g = tmp_path / "g.bin"
        assert run_cli("build-graph", "--kind", "binning", "--n", "4", "--k", "3",
                       "--seed", "7", "--out", str(g)) == 0
        out = tmp_path / "audit.json"
        assert run_cli("verify-graph", "--graph", str(g), "--check", check, *flags,
                       "--family", "sampled:size=4,count=3", "--out", str(out)) == code
        assert out.read_text() == golden

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
        # recorded while edge tables were stored as uint64
        assert obj["graph_id"] == "789921a6ef5fa8d9"

    def test_pipeline_descriptor_and_richness(self, tmp_path):
        out = tmp_path / "g.json"
        rec = tmp_path / "build.txt"
        assert run_cli("build-graph", "--kind", "pipeline", "--n", "4", "--k", "2",
                       "--delta", "7/10", "--seed", "5", "--out", str(out),
                       "--report", str(rec)) == 0
        assert rec.read_text() == BUILD_RECORD
        report = tmp_path / "rich.json"
        code = run_cli("verify-graph", "--graph", str(out), "--check", "richness",
                       "--delta", "7/10", "--k", "2",
                       "--family", "all-of-size:size=4", "--out", str(report))
        assert code == 0
        assert json.loads(report.read_text())["passed"]

    def test_inconclusive_certificate_exits_3(self, tmp_path, monkeypatch):
        # A split graph whose union bound is too weak while no witness set
        # fails; a lowered enumeration cap sends its size-4 family through
        # the certificate.
        import numpy as np
        from fractions import Fraction

        from richowner import cli, verification
        from richowner.construction import split_edges
        from richowner.graphs import TableGraph

        table = np.random.default_rng(0).integers(0, 4, size=(16, 2), dtype=np.uint64)
        g = split_edges(TableGraph(4, 2, table), s=1, delta=Fraction(1, 2))
        monkeypatch.setattr(cli, "_load_graph_any", lambda path: g)
        monkeypatch.setattr(verification, "ENUM_CAP", 1000)
        report = tmp_path / "rich.json"
        code = run_cli("verify-graph", "--graph", "split", "--check", "richness",
                       "--delta", "1/2", "--k", "2",
                       "--family", "all-of-size:size=4", "--out", str(report))
        assert code == 3
        obj = json.loads(report.read_text())
        assert obj["passed"] is None and obj["min_rich_fraction"] is None
        assert obj["mode"] == "all-of-size:certified"


    def test_split_over_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli("build-graph", "--kind", "pipeline", "--n", "5", "--k", "3",
                       "--delta", "1/4", "--seed", "1", "--out", str(out)) == 2
        assert "ell=20971520" in capsys.readouterr().err
        assert not out.exists()

    def test_construction_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # Exit 1 means a failed audit; a graph that cannot be built is an error.
        from richowner import verification

        class Failed:
            passed, worst_error, checked = False, 1, 1

        monkeypatch.setattr(verification, "check_prefix_extractor", lambda *a: Failed())
        out = tmp_path / "g.json"
        assert run_cli("build-graph", "--kind", "pipeline", "--n", "4", "--k", "2",
                       "--max-retries", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: verification failed on 2 attempts")
        assert not out.exists()

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
    cws3 = tmp_path / "cws3.json"
    graph = load_graph(str(g))
    cws3.write_text(json.dumps([
        encode(graph, BitString(4, v), None, seed=v, sender="ABC"[v]).to_json()
        for v in range(3)
    ]))
    no_sender = tmp_path / "no_sender.json"
    no_sender.write_text(json.dumps([
        {k: v for k, v in json.loads(cws3.read_text())[0].items() if k != "sender"}]))
    cws_object = tmp_path / "cws_object.json"
    cws_object.write_text('{"A": "1"}')
    text_bits = tmp_path / "text_bits.json"
    text_bits.write_text('[{"sender": "A", "payload_hex": "3", "payload_bits": "3"}]')
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json")
    desc_str_n = tmp_path / "desc_str_n.json"
    desc_str_n.write_text('{"kind": "binning", "n": "6", "k": 2, "seed": 1}')
    return {"g": str(g), "cws": str(cws), "desc": str(desc), "cws3": str(cws3),
            "out": str(tmp_path / "out.json"), "no_sender": str(no_sender),
            "cws_object": str(cws_object), "desc_str_n": str(desc_str_n),
            "text_bits": str(text_bits), "not_json": str(not_json)}


@pytest.mark.parametrize("argv, key", [
    (["profile", "--scenario", "collinear"], "'q'"),
    (["experiment", "--set", "scenario=collinear"], "'q'"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor",
      "--family", "sampled:count=3"], "'size'"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor",
      "--family", "all-of-size"], "'size'"),
    (["verify-graph", "--graph", "{g}", "--check", "richness", "--k", "2",
      "--family", "sampled:size=-2,count=3"], "positive size"),
    (["verify-graph", "--graph", "{g}", "--check", "richness", "--k", "2",
      "--family", "sampled:size=2,count=-1"], "positive count"),
    (["decode", "--codewords", "{cws}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2", "--decoder", "known-profile",
      "--rates", "1,2"], "rates '1,2'"),
    (["experiment", "--set", "graphs=pipeline:detla=1/2", "--set", "trials=1"],
     "'detla'"),
    (["encode", "--graph", "{desc}", "--input", "a", "--width", "4"], "'kind'"),
    (["decode", "--codewords", "{cws}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "3 codewords, got 0"),
    (["decode", "--codewords", "{cws3}", "--graphs", "{g},{g}",
      "--scenario", "collinear:q=2", "--decoder", "full"], "3 graphs, got 2"),
    (["decode", "--codewords", "{cws3}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=3"], "left width 4"),
    (["build-graph", "--kind", "binning", "--n", "4", "--k", "3", "--out", "{out}"],
     ".json path"),
    (["hash-audit", "--n", "1", "--s", "5"], "--s 5"),
    (["hash-audit", "--n", "4", "--s", "2", "--trials", "-3"], "--trials -3"),
    (["build-graph", "--kind", "pipeline", "--n", "4", "--k", "2", "--max-retries", "-1",
      "--out", "{out}"], "max_retries"),
    (["experiment", "--set", "trials=-2"], "'trials'"),
    (["profile", "--scenario", "collinear:q=5"],
     "no fixed irreducible polynomial for q=5"),
    (["experiment", "--set", "scenario=planted:n=4", "--set", "decoder=full",
      "--set", "oracle=toy:L=-3"], "'L'"),
    (["experiment", "--set", "scenario=planted:n=4", "--set", "decoder=full",
      "--set", "oracle=toy:T=-5"], "'T'"),
    (["hash-audit", "--epsilon", "1/0"], "--epsilon 1/0"),
    (["build-graph", "--n", "4", "--k", "2", "--delta", "1/0", "--out", "{out}"],
     "--delta 1/0"),
    (["encode", "--graph", "{g}", "--input", "a", "--width", "4", "--scheme", "4,3,1/0"],
     "--scheme 1/0"),
    (["encode", "--graph", "{g}", "--input", "a", "--width", "4", "--scheme", "6,3"],
     "--scheme 6,3:"),
    (["encode", "--graph", "{g}", "--input", "a", "--width", "4", "--scheme", "6,x,1/2"],
     "--scheme 6,x,1/2:"),
    (["verify-graph", "--graph", "{g}", "--check", "richness", "--k", "1", "--delta", "0",
      "--family", "sampled:size=4,count=3"], "got delta=0 k=1"),
    (["verify-graph", "--graph", "{g}", "--check", "richness", "--delta", "-1",
      "--family", "sampled:size=4,count=3"], "got delta=-1 k=2"),
    (["verify-graph", "--graph", "{g}", "--check", "richness", "--k", "-1",
      "--family", "sampled:size=4,count=3"], "got delta=1/2 k=-1"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor", "--epsilon", "-1",
      "--family", "sampled:size=4,count=3"], "epsilon must be >= 0"),
    (["decode", "--codewords", "{no_sender}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {no_sender}: entry 0 missing key 'sender'"),
    (["decode", "--codewords", "{cws_object}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {cws_object}: expected a list"),
    (["decode", "--codewords", "{text_bits}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {text_bits}: entry 0:"),
    (["decode", "--codewords", "{not_json}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {not_json}: not JSON"),
    (["encode", "--graph", "{not_json}", "--input", "a", "--width", "4"],
     "graph descriptor {not_json}: not JSON"),
    (["report", "--input", "{not_json}"], "report {not_json}: not JSON"),
    (["encode", "--graph", "{desc_str_n}", "--input", "a", "--width", "4"],
     "graph descriptor {desc_str_n}: key 'n' must be an integer"),
    (["experiment", "--set", "rates=profile+x"], "cannot parse rates 'profile+x'"),
    (["experiment", "--set", "rates=1,x,2"], "cannot parse rates '1,x,2'"),
], ids=["profile-scenario", "experiment-scenario", "family-sampled",
        "family-all-of-size", "family-negative-size", "family-negative-count", "decode-rates", "graphs-typo", "descriptor-kind",
        "decode-codeword-count", "decode-graph-count", "decode-graph-width",
        "binning-json-out", "hash-audit-distractors", "hash-audit-negative-trials",
        "build-negative-retries", "experiment-negative-trials",
        "collinear-unknown-field", "toy-negative-length", "toy-negative-steps",
        "hash-audit-zero-denominator", "build-zero-denominator",
        "encode-scheme-zero-denominator", "encode-scheme-two-fields",
        "encode-scheme-non-integer", "richness-zero-delta", "richness-negative-delta",
        "richness-negative-k", "extractor-negative-epsilon", "codeword-missing-key",
        "codewords-not-a-list", "codeword-text-width", "codewords-not-json",
        "descriptor-not-json", "report-not-json", "descriptor-string-width", "rates-profile-slack",
        "rates-explicit-part"])
def test_bad_spec_is_a_clean_error(argv, key, decode_inputs, capsys):
    capsys.readouterr()
    assert run_cli(*(a.format(**decode_inputs) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key.format(**decode_inputs) in err


@pytest.mark.parametrize("family", [
    "sampled:size=9,count=1,seed=0", "all-of-size:size=9",
    "exhaustive:min_size=5,max_size=2", "exhaustive:max_size=0",
])
@pytest.mark.parametrize("check", ["extractor", "richness"])
def test_family_without_sets_is_refused(family, check, tmp_path, capsys):
    # An n = 3 graph has 8 left nodes: none of these families names a set.
    g = tmp_path / "g.bin"
    assert run_cli("build-graph", "--kind", "binning", "--n", "3", "--k", "2",
                   "--seed", "7", "--out", str(g)) == 0
    capsys.readouterr()
    assert run_cli("verify-graph", "--graph", str(g), "--check", check, "--k", "2",
                   "--family", family, "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: family ") and "names no set" in err and "n=3" in err
    assert not (tmp_path / "r.json").exists()


def _experiment_and_report_bytes(tmp_path, fmt: str) -> tuple[bytes, bytes]:
    """One config written by `experiment --format fmt` and converted from its
    JSON report by `report --format fmt`."""
    config = ["--set", "scenario=collinear:q=2", "--set", "graphs=binning",
              "--set", "trials=4", "--set", "seed=5"]
    report, direct, converted = (tmp_path / name for name in ("r.json", "e.out", "r.out"))
    assert run_cli("experiment", *config, "--out", str(report)) == 0
    assert run_cli("experiment", *config, "--format", fmt, "--out", str(direct)) == 0
    assert run_cli("report", "--input", str(report), "--format", fmt,
                   "--out", str(converted)) == 0
    return direct.read_bytes(), converted.read_bytes()


def test_report_csv_matches_experiment_csv(tmp_path):
    direct, converted = _experiment_and_report_bytes(tmp_path, "csv")
    assert converted == direct


def test_report_json_matches_experiment_json(tmp_path):
    direct, converted = _experiment_and_report_bytes(tmp_path, "json")
    assert converted == direct


def test_experiment_csv_without_out_goes_to_stdout(capsys):
    overrides = {"scenario": "collinear:q=2", "graphs": "binning", "trials": "4",
                 "seed": "5"}
    capsys.readouterr()
    assert run_cli("experiment", *(f"--set={k}={v}" for k, v in overrides.items()),
                   "--format", "csv") == 0
    printed = capsys.readouterr().out
    report = run_experiment(ExperimentConfig.load(None, overrides))
    assert printed == report_text(report.to_json(), "csv")
