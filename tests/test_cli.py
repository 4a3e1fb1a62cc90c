import argparse
import json
from fractions import Fraction

import numpy as np
import pytest

from richowner import cli, crt
from richowner.bits import BitString
from richowner.cli import _load_graph_any, build_parser, main
from richowner.experiments import ExperimentConfig, build_graph, report_text, run_experiment
from richowner.graphs import SplitGraph
from richowner.protocol import encode
from richowner.specs import GRAPHS, parse_spec


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

# `build-graph --graph pipeline --n 4 --k 2 --out PATH`, as written before
# every graph kind was saved as a descriptor; the bytes must not change.
PIPELINE_DESCRIPTOR = """\
{
  "c": 4,
  "delta": "1/2",
  "k": 2,
  "kind": "pipeline",
  "max_retries": 10,
  "n": 4,
  "seed": 1
}
"""


class TestBuildAndVerify:
    @pytest.mark.parametrize("check, flags, code, golden", [
        ("extractor", ["epsilon=1/4"], 1, EXTRACTOR_AUDIT),
        ("richness", ["k=2", "delta=1/2"], 0, RICHNESS_AUDIT),
    ])
    def test_audit_json_bytes(self, check, flags, code, golden, tmp_path):
        g = tmp_path / "g.json"
        assert run_cli("build-graph", "--graph", "binning", "--n", "4", "--k", "3",
                       "--seed", "7", "--out", str(g)) == 0
        out = tmp_path / "audit.json"
        assert run_cli("verify-graph", "--graph", str(g), "--check",
                       f"{check}:{','.join(flags)}",
                       "--family", "sampled:size=4,count=3", "--out", str(out)) == code
        assert out.read_text() == golden

    def test_random_graph_build_and_extractor_check(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli("build-graph", "--graph", "random:epsilon=1/4", "--n", "4", "--k", "2",
                       "--seed", "3", "--out", str(out)) == 0
        g = _load_graph_any(str(out))
        assert g.n == 4 and g.m == 2 and g.degree == 256
        report = tmp_path / "check.json"
        code = run_cli("verify-graph", "--graph", str(out), "--check", "extractor:epsilon=1/4",
                       "--family", "sampled:size=4,count=50",
                       "--out", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["passed"] and obj["checked"] == 100
        # recorded while edge tables were stored as uint64
        assert obj["graph_id"] == "789921a6ef5fa8d9"

    @pytest.mark.parametrize("spec", [*GRAPHS, "random:epsilon=1/8,c=2", "pipeline:delta=0.5"])
    def test_every_kind_is_saved_as_its_descriptor(self, spec, tmp_path):
        out = tmp_path / "g.graph"  # any --out path holds a descriptor
        assert run_cli("build-graph", "--graph", spec, "--n", "4", "--k", "2",
                       "--out", str(out)) == 0
        kind, params = parse_spec(spec, GRAPHS)
        desc = json.loads(out.read_text())
        assert set(desc) == {"kind", "n", "k", "seed", "max_retries", *GRAPHS[kind]}
        if kind == "pipeline":  # delta=0.5 is written as "1/2"
            assert out.read_text() == PIPELINE_DESCRIPTOR
        direct, _, _ = build_graph(kind, 4, 2, 1, params, 10)
        loaded = _load_graph_any(str(out))
        assert type(loaded) is type(direct)
        assert loaded.graph_id() == direct.graph_id()
        # A split's rows are its base rows fanned out by ell primes, and its
        # id names ell and the base: equal base rows give equal rows.
        if isinstance(direct, SplitGraph):
            loaded, direct = loaded.base, direct.base
        xs = np.arange(16)
        assert np.array_equal(loaded.rows(xs), direct.rows(xs))

    def test_pipeline_descriptor_and_richness(self, tmp_path):
        out = tmp_path / "g.json"
        rec = tmp_path / "build.txt"
        assert run_cli("build-graph", "--graph", "pipeline:delta=7/10", "--n", "4", "--k", "2",
                       "--seed", "5", "--out", str(out),
                       "--report", str(rec)) == 0
        assert rec.read_text() == BUILD_RECORD
        report = tmp_path / "rich.json"
        code = run_cli("verify-graph", "--graph", str(out), "--check", "richness:delta=7/10,k=2",
                       "--family", "all-of-size:size=4", "--out", str(report))
        assert code == 0
        assert json.loads(report.read_text())["passed"]

    def test_inconclusive_certificate_exits_3(self, tmp_path, monkeypatch):
        # A split graph whose union bound is too weak while no witness set
        # fails; a lowered enumeration cap sends its size-4 family through
        # the certificate.
        from richowner import cli, verification
        from richowner.construction import split_edges
        from richowner.graphs import TableGraph

        table = np.random.default_rng(0).integers(0, 4, size=(16, 2), dtype=np.uint64)
        g = split_edges(TableGraph(4, 2, table), s=1, delta=Fraction(1, 2))
        monkeypatch.setattr(cli, "_load_graph_any", lambda path: g)
        monkeypatch.setattr(verification, "ENUM_CAP", 1000)
        report = tmp_path / "rich.json"
        code = run_cli("verify-graph", "--graph", "split", "--check", "richness:delta=1/2,k=2",
                       "--family", "all-of-size:size=4", "--out", str(report))
        assert code == 3
        obj = json.loads(report.read_text())
        assert obj["passed"] is None and obj["min_rich_fraction"] is None
        assert obj["mode"] == "all-of-size:certified"

    def test_report_without_construction_report_writes_nothing(self, tmp_path):
        # the error row build-report-without-construction-report pins the message
        out, rec = tmp_path / "g.json", tmp_path / "build.txt"
        assert run_cli("build-graph", "--graph", "binning", "--n", "4", "--k", "2",
                       "--out", str(out), "--report", str(rec)) == 2
        assert not out.exists() and not rec.exists()

    def test_split_over_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli("build-graph", "--graph", "pipeline:delta=1/4", "--n", "5", "--k", "3",
                       "--seed", "1", "--out", str(out)) == 2
        assert "ell=20971520" in capsys.readouterr().err
        assert not out.exists()

    def test_construction_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # Exit 1 means a failed audit; a graph that cannot be built is an error.
        from richowner import verification

        class Failed:
            passed, worst_error, checked = False, 1, 1

        monkeypatch.setattr(verification, "check_prefix_extractor", lambda *a: Failed())
        out = tmp_path / "g.json"
        assert run_cli("build-graph", "--graph", "pipeline", "--n", "4", "--k", "2",
                       "--max-retries", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: verification failed on 2 attempts")
        assert not out.exists()


SUBCOMMAND_OPTIONS = {
    "build-graph": {"--graph", "--n", "--k", "--seed", "--max-retries", "--out", "--report"},
    "verify-graph": {"--graph", "--check", "--family", "--out"},
    "hash-audit": {"--n", "--scheme", "--trials", "--seed", "--out"},
    "profile": {"--scenario", "--out"},
    "encode": {"--graph", "--input", "--scheme", "--seed", "--sender", "--out"},
    "decode": {"--codewords", "--graphs", "--scenario", "--decoder", "--rates", "--slack",
               "--out"},
    "experiment": {"--config", "--set", "--format", "--out"},
    "report": {"--input", "--format", "--out"},
}


@pytest.mark.parametrize("command, options", SUBCOMMAND_OPTIONS.items())
def test_graph_commands_take_each_choice_as_one_spec(command, options):
    """Each CLI value has one source: a graph's, an audit's or a scenario's
    arguments go in its spec (never a flag of their own such as --delta or
    --seed), and a width that the graph fixes is never a flag."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(commands.choices) == set(SUBCOMMAND_OPTIONS)
    actions = commands.choices[command]._actions
    assert {flag for action in actions for flag in action.option_strings} == {
        "-h", "--help", *options}


class TestHashAuditAndProfile:
    def test_hash_audit(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run_cli("hash-audit", "--n", "16", "--scheme", "3,1/10",
                       "--trials", "100", "--seed", "2", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["t"] == 480 and obj["below_target"] == 0

    def test_hash_audit_refuses_a_prime_count_past_the_cap_before_sieving(self, monkeypatch,
                                                                           capsys):
        # t = ceil(3 * 16 * 10^7) = 480,000,000 primes, past the 2^24 cap
        def no_sieve(*args):
            raise AssertionError("sieved")
        monkeypatch.setattr(crt, "primes_first", no_sieve)
        assert run_cli("hash-audit", "--n", "16", "--scheme", "3,1/10000000") == 2
        assert capsys.readouterr().err == (
            "error: --scheme 3,1/10000000: scheme needs t=480000000 primes, "
            f"past the cap of {1 << 24}\n")

    def test_profile_collinear(self, capsys):
        assert run_cli("profile", "--scenario", "collinear:q=2") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["members"] == 480
        assert obj["profile"]["ABC"] == 9

    def test_profile_dms(self, capsys):
        assert run_cli("profile", "--scenario", "dms:p000=1/2,p111=1/2,n=4") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["entropy_profile"]["ABC"] == 4.0

    def test_profile_cube_past_n5(self, capsys):
        """The member cap is the only limit on a cube's width: cube:n=6
        (2^18 members) profiles as every string is independent."""
        assert run_cli("profile", "--scenario", "cube:n=6") == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["n"], obj["members"]) == (6, 1 << 18)
        assert obj["profile"] == {"A": 6, "B": 6, "C": 6, "AB": 12, "AC": 12, "BC": 12,
                                  "ABC": 18}


class TestEncodeDecode:
    def test_round_trip(self, tmp_path):
        paths = {}
        for sender, k in (("A", "3"), ("B", "4"), ("C", "4")):
            p = tmp_path / f"g{sender}.json"
            assert run_cli("build-graph", "--graph", "pipeline:delta=1/2", "--n", "4",
                           "--k", k, "--seed", f"1{k}",
                           "--out", str(p)) == 0
            paths[sender] = p
        from richowner.scenarios import named_correlation_set
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
        g = tmp_path / "g.json"
        run_cli("build-graph", "--graph", "binning", "--n", "4", "--k", "3",
                "--seed", "7", "--out", str(g))
        out = tmp_path / "cw.json"
        assert run_cli("encode", "--graph", str(g), "--input", "a",
                       "--seed", "9", "--scheme", "3,1/16",
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
    g = tmp_path / "g.json"
    assert run_cli("build-graph", "--graph", "binning", "--n", "4", "--k", "3",
                   "--seed", "7", "--out", str(g)) == 0
    cws = tmp_path / "cws.json"
    cws.write_text("[]")
    desc = tmp_path / "desc.json"
    desc.write_text('{"n": 4, "k": 2, "seed": 1}')
    cws3 = tmp_path / "cws3.json"
    graph = _load_graph_any(str(g))
    cws3.write_text(json.dumps([
        encode(graph, BitString(4, v), None, seed=v, sender="ABC"[v]).to_json()
        for v in range(3)
    ]))
    no_sender = tmp_path / "no_sender.json"
    no_sender.write_text(json.dumps([
        {k: v for k, v in json.loads(cws3.read_text())[0].items() if k != "sender"}]))
    cws_object = tmp_path / "cws_object.json"
    cws_object.write_text('{"A": "1"}')
    cws_number = tmp_path / "cws_number.json"
    cws_number.write_text("[1, 2, 3]")
    desc_list = tmp_path / "desc_list.json"
    desc_list.write_text('["binning", 4, 2, 1]')
    text_bits = tmp_path / "text_bits.json"
    text_bits.write_text('[{"sender": "A", "payload_hex": "3", "payload_bits": "3"}]')
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json")
    desc_str_n = tmp_path / "desc_str_n.json"
    desc_str_n.write_text('{"kind": "binning", "n": "6", "k": 2, "seed": 1}')
    desc_list_kind = tmp_path / "desc_list_kind.json"
    desc_list_kind.write_text('{"kind": ["x"], "n": 4, "k": 2, "seed": 1}')
    mistyped = {"desc_float_delta": '"delta": 0.3', "desc_float_c": '"c": 4.7',
                "desc_bool_c": '"c": true'}
    for name, entry in mistyped.items():
        (tmp_path / f"{name}.json").write_text(
            f'{{"kind": "pipeline", "n": 4, "k": 2, "seed": 1, {entry}}}')
    g5 = tmp_path / "g5.json"
    assert run_cli("build-graph", "--graph", "binning", "--n", "5", "--k", "2",
                   "--seed", "7", "--out", str(g5)) == 0
    bad_files = {
        "hex_zz": "0 1 2\nzz 1 2\n", "two_fields": "0 1 2\n1 2\n",
        "hex_prefix": "0 1 2\n0x1 2 3\n", "hex_underscore": "0 1 2\n1_0 1 2\n",
        "hex_sign": "0 1 2\n+1 2 3\n",
        "wide_value": "0 1 2\n1 2 ff\n",
        "empty_set": "", "comments_only": "# no triple\n\n# nor here\n",
        # what `build-graph --kind binning --n 4 --k 3 --seed 7` wrote before
        # every graph file was a descriptor
        "binary_graph": "4 3 0 seeded 7\n",
        "bad_header": "a b c d e\n",
        # a descriptor cut off part way through
        "truncated": '{"kind": "binning", "n": 4, "k": 3, "se',
    }
    for name, text in bad_files.items():
        (tmp_path / name).write_text(text)
    return {**{name: str(tmp_path / name) for name in bad_files},
            "g": str(g), "g5": str(g5), "cws": str(cws), "desc": str(desc), "cws3": str(cws3),
            "out": str(tmp_path / "out.json"), "no_sender": str(no_sender),
            "cws_object": str(cws_object), "cws_number": str(cws_number),
            "desc_list": str(desc_list), "desc_str_n": str(desc_str_n),
            "desc_list_kind": str(desc_list_kind),
            **{name: str(tmp_path / f"{name}.json") for name in mistyped},
            "report": str(tmp_path / "report.txt"),
            "text_bits": str(text_bits), "not_json": str(not_json)}


@pytest.mark.parametrize("argv, key", [
    (["profile", "--scenario", "collinear"], "'q'"),
    (["experiment", "--set", "scenario=collinear"], "'q'"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor",
      "--family", "sampled:count=3"], "'size'"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor",
      "--family", "all-of-size"], "'size'"),
    (["verify-graph", "--graph", "{g}", "--check", "richness:k=2",
      "--family", "sampled:size=-2,count=3"], "positive size"),
    (["verify-graph", "--graph", "{g}", "--check", "richness:k=2",
      "--family", "sampled:size=2,count=-1"],
     "spec 'sampled:size=2,count=-1': sampled family needs a positive count and a seed"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor",
      "--family", "all-of-size:size=0"],
     "spec 'all-of-size:size=0': all-of-size family needs a positive size"),
    (["decode", "--codewords", "{cws}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2", "--decoder", "known-profile",
      "--rates", "1,2"], "rates '1,2'"),
    (["experiment", "--set", "graphs=pipeline:detla=1/2", "--set", "trials=1"],
     "'detla'"),
    (["encode", "--graph", "{desc}", "--input", "a"], "'kind'"),
    (["decode", "--codewords", "{cws}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "3 codewords, got 0"),
    (["decode", "--codewords", "{cws3}", "--graphs", "{g},{g}",
      "--scenario", "collinear:q=2", "--decoder", "full"], "3 graphs, got 2"),
    (["decode", "--codewords", "{cws3}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=3"], "left width 4"),
    (["hash-audit", "--n", "1", "--scheme", "5,1/10"], "--scheme 5,1/10: needs 4 distinct"),
    (["hash-audit", "--n", "4", "--scheme", "2,1/10", "--trials", "-3"], "--trials -3"),
    (["build-graph", "--graph", "pipeline", "--n", "4", "--k", "2", "--max-retries", "-1",
      "--out", "{out}"], "max_retries"),
    (["experiment", "--set", "trials=-2"], "'trials'"),
    (["profile", "--scenario", "collinear:q=5"],
     "spec 'collinear:q=5': no fixed irreducible polynomial for q=5"),
    (["experiment", "--set", "scenario=planted:n=4", "--set", "decoder=full",
      "--set", "oracle=toy:L=-3"], "'L'"),
    (["experiment", "--set", "scenario=planted:n=4", "--set", "decoder=full",
      "--set", "oracle=toy:T=-5"], "'T'"),
    (["hash-audit", "--scheme", "3,1/0"], "--scheme 3,1/0: bad field '1/0'"),
    (["build-graph", "--graph", "pipeline:delta=1/0", "--n", "4", "--k", "2",
      "--out", "{out}"], "delta='1/0'"),
    (["build-graph", "--graph", "binning", "--n", "4", "--k", "2", "--out", "{out}",
      "--report", "{report}"], "--report {report}: a binning graph has no construction report"),
    (["build-graph", "--graph", "binning:delta=1/2", "--n", "4", "--k", "2",
      "--out", "{out}"], "unknown key 'delta' (allowed: none)"),
    (["encode", "--graph", "{g}", "--input", "a", "--scheme", "3,1/0"],
     "--scheme 3,1/0: bad field '1/0'"),
    (["encode", "--graph", "{g}", "--input", "a", "--scheme", "6"],
     "--scheme 6: expected 2 comma-separated field(s), got 1"),
    (["encode", "--graph", "{g}", "--input", "a", "--scheme", "x,1/2"],
     "--scheme x,1/2: bad field 'x'"),
    (["verify-graph", "--graph", "{g}", "--check", "richness:k=1,delta=0",
      "--family", "sampled:size=4,count=3"], "got delta=0 k=1"),
    (["verify-graph", "--graph", "{g}", "--check", "richness:delta=-1",
      "--family", "sampled:size=4,count=3"], "got delta=-1 k=2"),
    (["verify-graph", "--graph", "{g}", "--check", "richness:k=-1",
      "--family", "sampled:size=4,count=3"], "got delta=1/2 k=-1"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor:epsilon=-1",
      "--family", "sampled:size=4,count=3"], "epsilon must be >= 0"),
    (["verify-graph", "--graph", "{g}", "--check", "extractor:k=3",
      "--family", "sampled:size=4,count=3"], "unknown key 'k'"),
    (["verify-graph", "--graph", "{g}", "--check", "richness:epsilon=1/4",
      "--family", "sampled:size=4,count=3"], "unknown key 'epsilon'"),
    (["verify-graph", "--graph", "{g}", "--check", "bogus",
      "--family", "sampled:size=4,count=3"], "unknown kind 'bogus'"),
    (["decode", "--codewords", "{no_sender}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {no_sender}: entry 0 missing key 'sender'"),
    (["decode", "--codewords", "{cws_object}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {cws_object}: expected a list"),
    (["decode", "--codewords", "{text_bits}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {text_bits}: entry 0:"),
    (["decode", "--codewords", "{not_json}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {not_json}: not JSON"),
    (["encode", "--graph", "{not_json}", "--input", "a"],
     "graph descriptor {not_json}: not JSON"),
    (["report", "--input", "{not_json}"], "report {not_json}: not JSON"),
    (["encode", "--graph", "{desc_str_n}", "--input", "a"],
     "graph descriptor {desc_str_n}: key 'n' must be an integer"),
    (["encode", "--graph", "{desc_list_kind}", "--input", "a"],
     "graph descriptor {desc_list_kind}: key 'kind' must be a string"),
    (["encode", "--graph", "{desc_float_delta}", "--input", "a"],
     "graph descriptor {desc_float_delta}: key 'delta' must be a string or an integer, "
     "got 0.3"),
    (["encode", "--graph", "{desc_float_c}", "--input", "a"],
     "graph descriptor {desc_float_c}: key 'c' must be a string or an integer, got 4.7"),
    (["encode", "--graph", "{desc_bool_c}", "--input", "a"],
     "graph descriptor {desc_bool_c}: key 'c' must be a string or an integer, got True"),
    (["experiment", "--set", "rates=profile+x"], "cannot parse rates 'profile+x'"),
    (["experiment", "--set", "rates=1,x,2"], "cannot parse rates '1,x,2'"),
    (["decode", "--codewords", "{cws3}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2", "--decoder", "full", "--rates", "profile+-9"],
     "rates 'profile+-9': width 4 + slack -9 caps every rate below 0"),
    (["experiment", "--set", "rates=-1,2,3"], "rates '-1,2,3': rates must be nonnegative"),
    (["experiment", "--set", "rates=total-100"],
     "rates 'total-100': deficit 100 exceeds the triple requirement"),
    (["experiment", "--set", "scenario=collinear:q=2", "--set", "rates=total--1",
      "--set", "trials=2"], "rates 'total--1': deficit -1 must be >= 0"),
    (["decode", "--codewords", "{cws3}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2", "--decoder", "full", "--rates", "total--1"],
     "rates 'total--1': deficit -1 must be >= 0"),
    (["experiment", "--set", "scenario=collinear:q=2", "--set", "rates=bogus",
      "--set", "trials=0"],
     "cannot parse rates 'bogus': expected 3 comma-separated field(s), got 1"),
    (["experiment", "--set", "scenario=collinear:q=2", "--set", "rates=-1,2,3",
      "--set", "trials=0"], "rates '-1,2,3': rates must be nonnegative"),
    (["experiment", "--set", "scenario=collinear:q=2", "--set", "rates=profile+x",
      "--set", "trials=0"], "cannot parse rates 'profile+x': bad field 'x'"),
    (["experiment", "--set", "scenario=collinear:q=2", "--set", "rates=total--1",
      "--set", "trials=0"], "rates 'total--1': deficit -1 must be >= 0"),
    (["experiment", "--set", "trials=x"], ("trials", "'x'")),
    (["experiment", "--set", "trials"], "expected key=value, got 'trials'"),
    (["experiment", "--set", "scenario=foo:q=2"], "unknown kind 'foo'"),
    (["experiment", "--set", "graphs=pipeline:delta=x", "--set", "trials=1"],
     "delta='x'"),
    (["profile", "--scenario", "dms:p008=1/2"], "unknown key 'p008'"),
    (["experiment", "--set", "scenario=dms:p000=1"],
     "'dms:p000=1' has no explicit member set"),
    (["verify-graph", "--graph", "{g5}", "--check", "richness:k=2",
      "--family", "all-of-size:size=8"], "certified audit only covers the small regime"),
    (["profile", "--scenario", "file:{hex_zz}"],
     "scenario file {hex_zz}, line 2: not a hex field in 'zz 1 2'"),
    (["profile", "--scenario", "file:{hex_prefix}"],
     "scenario file {hex_prefix}, line 2: not a hex field in '0x1 2 3'"),
    (["profile", "--scenario", "file:{hex_underscore}"],
     "scenario file {hex_underscore}, line 2: not a hex field in '1_0 1 2'"),
    (["profile", "--scenario", "file:{hex_sign}"],
     "scenario file {hex_sign}, line 2: not a hex field in '+1 2 3'"),
    (["profile", "--scenario", "file:{two_fields}"],
     "scenario file {two_fields}, line 2: expected 3 hex fields, got '1 2'"),
    (["profile", "--scenario", "file:path={wide_value},n=4"],
     "scenario file {wide_value}, line 2: '1 2 ff' holds a value out of range for n=4"),
    (["profile", "--scenario", "file:{empty_set}"],
     "scenario file {empty_set}: holds no triple"),
    (["experiment", "--set", "scenario=file:{comments_only}", "--set", "trials=1"],
     "scenario file {comments_only}: holds no triple"),
    (["encode", "--graph", "{binary_graph}", "--input", "a"],
     "graph descriptor {binary_graph}: not JSON"),
    (["encode", "--graph", "{bad_header}", "--input", "a"],
     "graph descriptor {bad_header}: not JSON"),
    (["encode", "--graph", "{truncated}", "--input", "a"],
     "graph descriptor {truncated}: not JSON"),
    (["experiment", "--set", "scenario=planted:n=7", "--set", "oracle=toy",
      "--set", "decoder=full"], "spec 'planted:n=7': width n=7 must be even and >= 2"),
    (["experiment", "--set", "scenario=planted:n=8", "--set", "oracle=counting"],
     "counting oracle needs an enumerable scenario"),
    (["encode", "--graph", "{desc_list}", "--input", "a"],
     "graph descriptor {desc_list}: expected an object"),
    (["decode", "--codewords", "{cws_number}", "--graphs", "{g},{g},{g}",
      "--scenario", "collinear:q=2"], "codewords {cws_number}: entry 0 is not an object"),
    (["profile", "--scenario", "dms:p000=1,n=0"],
     "spec 'dms:p000=1,n=0': draw count n=0 must be >= 1"),
    (["profile", "--scenario", "dms:p000=1/2,p111=1/2,n=-3"],
     "spec 'dms:p000=1/2,p111=1/2,n=-3': draw count n=-3 must be >= 1"),
    (["hash-audit", "--scheme", "3"], "--scheme 3: expected 2 comma-separated field(s), got 1"),
    (["encode", "--graph", "{g}", "--input", "a", "--scheme", "4,3,1/16"],
     "--scheme 4,3,1/16: expected 2 comma-separated field(s), got 3"),
    (["profile", "--scenario", "diagonal:n=22"],
     "spec 'diagonal:n=22': width n=22 outside 1..21"),
    (["profile", "--scenario", "diagonal:n=0"], "spec 'diagonal:n=0': width n=0 outside 1..21"),
    (["profile", "--scenario", "diagonal:n=-1"],
     "spec 'diagonal:n=-1': width n=-1 outside 1..21"),
    (["profile", "--scenario", "cube:n=0"], "spec 'cube:n=0': width n=0 outside 1..21"),
    (["profile", "--scenario", "cube:n=-1"], "spec 'cube:n=-1': width n=-1 outside 1..21"),
    (["profile", "--scenario", "file:path={hex_zz},n=-1"],
     "spec 'file:path={hex_zz},n=-1': width n=-1 outside 1..21"),
    (["profile", "--scenario", "collinear:q=11"],
     "spec 'collinear:q=11': width n=22 outside 1..21"),
    (["profile", "--scenario", "collinear:q=8"],
     "spec 'collinear:q=8': 1090905047040 members exceed the cap of 2097152 rows"),
    (["profile", "--scenario", "cube:n=8"],
     "spec 'cube:n=8': 16777216 members exceed the cap of 2097152 rows"),
    (["experiment", "--set", "scenario=planted:n=0", "--set", "oracle=toy",
      "--set", "decoder=full", "--set", "graphs=binning", "--set", "trials=1"],
     "spec 'planted:n=0': width n=0 must be even and >= 2"),
    (["experiment", "--set", "scenario=planted:n=-2", "--set", "oracle=toy",
      "--set", "decoder=full", "--set", "graphs=binning", "--set", "trials=1"],
     "spec 'planted:n=-2': width n=-2 must be even and >= 2"),
    (["build-graph", "--graph", "random", "--n", "60", "--k", "4", "--out", "{out}"],
     "seeded graph n=60, D=4096: n + log2 D = 72 exceeds the 64-bit stream index"),
    (["experiment", "--set", "scenario=planted:n=66", "--set", "oracle=toy",
      "--set", "decoder=full", "--set", "graphs=binning", "--set", "trials=1"],
     "seeded graph n=66, D=1: n + log2 D = 66 exceeds the 64-bit stream index"),
    (["encode", "--graph", "{g}", "--input", "zz"], "--input zz: not a hex value of width n=4"),
    (["encode", "--graph", "{g}", "--input", "1ff"],
     "--input 1ff: not a hex value of width n=4"),
    (["encode", "--graph", "{g}", "--input", ""], "--input : not a hex value of width n=4"),
    (["encode", "--graph", "{g}", "--input", " 0x_f"],
     "--input  0x_f: not a hex value of width n=4"),
], ids=["profile-scenario", "experiment-scenario", "family-sampled",
        "family-all-of-size", "family-negative-size", "family-negative-count", "family-zero-size",
        "decode-rates", "graphs-typo", "descriptor-kind",
        "decode-codeword-count", "decode-graph-count", "decode-graph-width",
        "hash-audit-distractors", "hash-audit-negative-trials",
        "build-negative-retries", "experiment-negative-trials",
        "collinear-unknown-field", "toy-negative-length", "toy-negative-steps",
        "hash-audit-zero-denominator", "build-zero-denominator",
        "build-report-without-construction-report", "build-graph-unknown-key",
        "encode-scheme-zero-denominator", "encode-scheme-one-field",
        "encode-scheme-non-integer", "richness-zero-delta", "richness-negative-delta",
        "richness-negative-k", "extractor-negative-epsilon", "extractor-unknown-key",
        "richness-unknown-key", "unknown-check-kind", "codeword-missing-key",
        "codewords-not-a-list", "codeword-text-width", "codewords-not-json",
        "descriptor-not-json", "report-not-json", "descriptor-string-width",
        "descriptor-list-kind", "descriptor-float-delta", "descriptor-float-c",
        "descriptor-bool-c", "rates-profile-slack",
        "rates-explicit-part", "rates-profile-below-zero", "rates-explicit-negative",
        "rates-deficit-past-requirement", "rates-negative-deficit",
        "decode-rates-negative-deficit", "rates-bogus-without-trials",
        "rates-explicit-negative-without-trials", "rates-profile-slack-without-trials",
        "rates-negative-deficit-without-trials", "config-non-integer", "set-without-equals",
        "unknown-spec-kind", "graphs-bad-fraction", "dms-unknown-key",
        "dms-without-member-set", "certificate-large-regime",
        "scenario-file-bad-hex", "scenario-file-hex-prefix", "scenario-file-hex-underscore",
        "scenario-file-hex-sign", "scenario-file-two-fields", "scenario-file-wide-value",
        "scenario-file-empty", "scenario-file-comments-only",
        "old-binary-graph-file", "graph-bad-header", "graph-truncated-payload",
        "planted-odd-width", "counting-without-member-set", "descriptor-not-an-object",
        "codeword-not-an-object",
        "dms-zero-draws", "dms-negative-draws", "hash-audit-scheme-one-field",
        "encode-scheme-three-fields", "diagonal-too-wide", "diagonal-zero-width",
        "diagonal-negative-width", "cube-zero-width", "cube-negative-width",
        "scenario-file-negative-width", "collinear-too-wide", "collinear-over-member-cap",
        "cube-over-member-cap", "planted-zero-width",
        "planted-negative-width", "random-stream-index-past-64-bits",
        "binning-stream-index-past-64-bits", "encode-input-not-hex", "encode-input-too-wide",
        "encode-input-empty", "encode-input-prefixed"])
def test_bad_spec_is_a_clean_error(argv, key, decode_inputs, capsys):
    """`key` is the text the message must hold, or a tuple of such texts."""
    capsys.readouterr()
    assert run_cli(*(a.format(**decode_inputs) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for text in key if isinstance(key, tuple) else (key,):
        assert text.format(**decode_inputs) in err


@pytest.mark.parametrize("decoder", ["membership", "known-profile", "full"])
def test_decode_reads_rates_before_rebuilding_a_graph(decoder, decode_inputs, monkeypatch,
                                                      capsys):
    def unbuilt(path):
        raise AssertionError(f"rebuilt {path}")
    monkeypatch.setattr(cli, "_load_graph_any", unbuilt)
    capsys.readouterr()
    assert run_cli("decode", "--codewords", decode_inputs["cws3"],
                   "--graphs", ",".join([decode_inputs["g"]] * 3),
                   "--scenario", "collinear:q=2", "--decoder", decoder,
                   "--rates", "bogus") == 2
    assert capsys.readouterr().err == ("error: cannot parse rates 'bogus': expected 3 "
                                       "comma-separated field(s), got 1\n")


@pytest.mark.parametrize("value", ["yes", "no"])
def test_report_with_mistyped_value_exits_1(value, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert run_cli("experiment", "--set", "graphs=binning", "--set", "trials=2",
                   "--out", str(report)) == 0
    obj = json.loads(report.read_text())
    obj["trials"][0]["correct"] = value
    report.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("report", "--input", str(report), "--format", "csv") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"schema violation: $.trials[0].correct: expected boolean, "
                            f"got {value!r}\n")


def test_empty_plan_table_fails_every_trial(decode_inputs, tmp_path):
    # With slack -1, profile search admits no candidate profile for 0,3,3.
    full = ["--decoder", "full", "--rates", "0,3,3", "--slack", "-1"]
    out = tmp_path / "decoded.json"
    assert run_cli("decode", "--codewords", decode_inputs["cws3"],
                   "--graphs", ",".join([decode_inputs["g"]] * 3),
                   "--scenario", "collinear:q=2", *full, "--out", str(out)) == 1
    assert json.loads(out.read_text())["reason"] == "no admissible candidate profile"
    report = tmp_path / "r.json"
    assert run_cli("experiment", "--set", "decoder=full", "--set", "rates=0,3,3",
                   "--set", "slack=-1", "--set", "graphs=binning", "--set", "trials=2",
                   "--out", str(report)) == 0
    aggregates = json.loads(report.read_text())["aggregates"]
    assert aggregates["failures"] == aggregates["trials"] == 2


@pytest.mark.parametrize("family", [
    "sampled:size=9,count=1,seed=0", "all-of-size:size=9",
    "exhaustive:min_size=5,max_size=2", "exhaustive:max_size=0",
])
@pytest.mark.parametrize("check", ["extractor", "richness"])
def test_family_without_sets_is_refused(family, check, tmp_path, capsys):
    # An n = 3 graph has 8 left nodes: none of these families names a set.
    g = tmp_path / "g.json"
    assert run_cli("build-graph", "--graph", "binning", "--n", "3", "--k", "2",
                   "--seed", "7", "--out", str(g)) == 0
    capsys.readouterr()
    assert run_cli("verify-graph", "--graph", str(g), "--check", check,
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
    assert printed == report_text(report, "csv")
