"""Command-line interface.

Subcommands: build-graph, verify-graph, hash-audit, profile, encode,
decode, experiment, report.  Everything is seeded and reproducible; the
RICHOWNER_SEED environment variable overrides the experiment master seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .bits import BitString
from .construction import ConstructionError
from .crt import HashScheme, isolation_probability
from .experiments import (
    DECODERS,
    ConfigError,
    ExperimentConfig,
    _resolve_rates,
    build_graph,
    decode_triple,
    report_text,
    run_experiment,
    validate_report,
)
from .graphs import LabeledBipartiteGraph
from .oracles import SUBSET_NAMES, CountingOracle
from .protocol import Codeword, encode as protocol_encode
from .rng import SeedStream, derive_seed
from .scenarios import SourceDistribution, entropy_profile, named_correlation_set
from .specs import (CHECKS, FAMILIES, GRAPHS, SCENARIOS, comma_fields, key_values, parse_spec,
                    spec_args)
from .verification import BFamily, check_prefix_extractor, rich_owner_fraction


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _read_json(path: str, what: str):
    """The parsed JSON of an input file; text that is not JSON names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{what} {path}: not JSON ({exc})") from None


def _scheme(text: str, n: int) -> HashScheme:
    """The tag scheme `--scheme s,epsilon` for n-bit strings."""
    s, epsilon = comma_fields(text, (int, Fraction), f"--scheme {text}")
    return HashScheme(n, s, epsilon)


# The keys of a graph descriptor besides the kind's GRAPHS arguments, with
# their JSON types.  A GRAPHS argument is a string or an integer, so that no
# JSON float or boolean is read as a rational or an integer.
_DESCRIPTOR_KEYS = {"kind": ((str,), "a string"), "n": ((int,), "an integer"),
                    "k": ((int,), "an integer"), "seed": ((int,), "an integer"),
                    "max_retries": ((int,), "an integer")}
_GRAPH_ARGUMENT = ((str, int), "a string or an integer")


def _load_graph_any(path: str) -> LabeledBipartiteGraph:
    """Rebuild a graph from the JSON descriptor that build-graph writes."""
    desc = _read_json(path, "graph descriptor")
    if not isinstance(desc, dict):
        raise ConfigError(f"graph descriptor {path}: expected an object")
    missing = [k for k in ("kind", "n", "k", "seed") if k not in desc]
    if missing:
        raise ConfigError(f"graph descriptor {path}: missing key {missing[0]!r}")
    for key, value in desc.items():
        types, name = _DESCRIPTOR_KEYS.get(key, _GRAPH_ARGUMENT)
        if type(value) not in types:
            raise ConfigError(f"graph descriptor {path}: key {key!r} must be {name}, "
                              f"got {value!r}")
    raw = {k: v for k, v in desc.items() if k not in _DESCRIPTOR_KEYS}
    params = spec_args(GRAPHS, desc["kind"], raw, f"graph descriptor {path}")
    g, _, _ = build_graph(desc["kind"], desc["n"], desc["k"], desc["seed"], params,
                          desc.get("max_retries", 10))
    return g


def _cmd_build_graph(args) -> int:
    kind, params = parse_spec(args.graph, GRAPHS)
    g, summary, report = build_graph(kind, args.n, args.k, args.seed, params, args.max_retries)
    if args.report and report is None:
        raise ConfigError(f"--report {args.report}: a {kind} graph has no construction report")
    _write_json({"kind": kind, "n": args.n, "k": args.k, "seed": args.seed,
                 "max_retries": args.max_retries,
                 **{key: str(value) if isinstance(value, Fraction) else value
                    for key, value in params.items()}}, args.out)
    if args.report:
        _write_text(report.as_record() + "\n", args.report)
    fields = " ".join(f"{key}={summary[key]}" for key in ("k", "m", "D", "gamma", "retries"))
    print(f"built {kind} graph n={g.n} {fields} -> {args.out}")
    return 0


def _cmd_verify_graph(args) -> int:
    mode, params = parse_spec(args.family, FAMILIES)
    family = BFamily(mode=mode, **params)
    check, check_params = parse_spec(args.check, CHECKS)
    g = _load_graph_any(args.graph)
    # the CHECKS keys are the audits' own argument names
    audit = check_prefix_extractor if check == "extractor" else rich_owner_fraction
    report = audit(g, family=family, **check_params)
    _write_json(report.to_json(), args.out)
    if report.passed is None:  # inconclusive certificate
        return 3
    return 0 if report.passed else 1


def _cmd_hash_audit(args) -> int:
    scheme = _scheme(args.scheme, args.n)
    if args.trials < 0:
        raise ConfigError(f"--trials {args.trials}: must be >= 0")
    if scheme.s > (1 << args.n):
        raise ConfigError(f"--scheme {args.scheme}: needs {scheme.s - 1} distinct distractors, "
                          f"but only {(1 << args.n) - 1} {args.n}-bit strings differ from u1")
    stream = SeedStream(derive_seed(args.seed, "hash-audit"))
    worst = Fraction(1)
    below = 0
    for _ in range(args.trials):
        u1 = stream.bits(args.n)
        distractors = set()
        while len(distractors) < scheme.s - 1:
            v = stream.bits(args.n)
            if v != u1:
                distractors.add(v)
        p = isolation_probability(u1, distractors, scheme)
        worst = min(worst, p)
        if p < 1 - scheme.epsilon:
            below += 1
    _write_json({
        "n": args.n, "s": scheme.s, "epsilon": str(scheme.epsilon), "t": scheme.t,
        "trials": args.trials, "worst_isolation": str(worst),
        "below_target": below,
    }, args.out)
    return 0 if below == 0 else 1


def _cmd_profile(args) -> int:
    kind, params = parse_spec(args.scenario, SCENARIOS)
    if kind == "dms":
        n = params.pop("n")
        if n < 1:
            raise ConfigError(f"spec {args.scenario!r}: draw count n={n} must be >= 1")
        # the grammar lists p000..p111 in the order SourceDistribution indexes them
        values = entropy_profile(SourceDistribution(tuple(params.values())), n)
        record = {"entropy_profile": dict(zip(SUBSET_NAMES, values))}
    else:
        S = named_correlation_set(args.scenario)
        record = {"n": S.n, "members": len(S), "profile": CountingOracle(S).profile().as_dict()}
    _write_json({"scenario": args.scenario, **record}, args.out)
    return 0


def _cmd_encode(args) -> int:
    g = _load_graph_any(args.graph)
    try:
        x = BitString.from_hex(args.input, g.n)
    except ValueError:
        raise ConfigError(f"--input {args.input}: not a hex value of width n={g.n}") from None
    scheme = _scheme(args.scheme, g.n) if args.scheme else None
    cw = protocol_encode(g, x, scheme, args.seed, sender=args.sender)
    _write_json(cw.to_json(), args.out)
    return 0


def _load_codewords(path: str) -> list[Codeword]:
    """The codewords of a JSON list; a malformed entry names the path, and
    the key when one is missing."""
    entries = _read_json(path, "codewords")
    if not isinstance(entries, list):
        raise ConfigError(f"codewords {path}: expected a list of codewords")
    codewords = []
    for i, entry in enumerate(entries):
        where = f"codewords {path}: entry {i}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} is not an object")
        try:
            codewords.append(Codeword.from_json(entry))
        except KeyError as exc:
            raise ConfigError(f"{where} missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return codewords


def _cmd_decode(args) -> int:
    codewords = _load_codewords(args.codewords)
    graphs = [_load_graph_any(p) for p in args.graphs.split(",")]
    S = named_correlation_set(args.scenario)
    oracle = rates = profile = None
    if args.decoder != "membership":
        oracle = CountingOracle(S)
        profile = oracle.profile() if args.decoder == "known-profile" else None
        rates = _resolve_rates(args.rates, oracle, None, S.n, profile)
    for what, items in (("codewords", codewords), ("graphs", graphs)):
        if len(items) != 3:
            raise ConfigError(f"decode needs 3 {what}, got {len(items)}")
    for path, g in zip(args.graphs.split(","), graphs):
        if g.n != S.n:
            raise ConfigError(f"graph {path} has left width {g.n}, but scenario "
                              f"{args.scenario} has n={S.n}")
    result = decode_triple(args.decoder, codewords, graphs, S, oracle, rates, profile,
                           args.slack)
    _write_json(result.to_json(), args.out)
    return 0 if result.ok else 1


def _cmd_experiment(args) -> int:
    overrides = key_values(args.set or [], "--set")
    config = ExperimentConfig.load(args.config, overrides)
    report = run_experiment(config)
    _write_text(report_text(report.to_json(), args.format), args.out)
    if args.out:
        print(f"wrote {args.format} report -> {args.out}")
    agg = report.aggregates
    print(f"trials={agg['trials']} successes={agg['successes']} "
          f"success_rate={agg['success_rate']}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    obj = _read_json(args.input, "report")
    problems = validate_report(obj)
    if problems:
        for p in problems:
            print(f"schema violation: {p}", file=sys.stderr)
        return 1
    _write_text(report_text(obj, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richowner",
        description="Distributed-compression simulator over rich-owner graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build a graph and write its rebuild descriptor")
    p.add_argument("--graph", default=ExperimentConfig.graphs, help="graph spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-retries", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("verify-graph", help="audit a graph property",
                       description="Exit status: 0 pass, 1 fail, 2 error, "
                                   "3 inconclusive rich-owner certificate.")
    p.add_argument("--graph", required=True)
    p.add_argument("--check", required=True, help="audit spec")
    p.add_argument("--family", default="exhaustive")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_graph)

    p = sub.add_parser("hash-audit", help="isolation statistics for a scheme")
    p.add_argument("--n", type=int, default=16, help="width of the strings and the scheme")
    p.add_argument("--scheme", default="3,1/10", help="tag scheme as s,epsilon")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hash_audit)

    p = sub.add_parser("profile", help="profile of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("encode", help="encode one input through a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--input", required=True, help="hex value of the source string")
    p.add_argument("--scheme", help="tag scheme as s,epsilon")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sender", default="A")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a codeword triple")
    p.add_argument("--codewords", required=True, help="JSON file with 3 codewords")
    p.add_argument("--graphs", required=True, help="comma-separated graph paths")
    p.add_argument("--scenario", required=True)
    p.add_argument("--decoder", choices=DECODERS, default="membership")
    p.add_argument("--rates", default="profile+2")
    p.add_argument("--slack", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("experiment", help="run a reproducible experiment")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="validate and convert a report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConstructionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
