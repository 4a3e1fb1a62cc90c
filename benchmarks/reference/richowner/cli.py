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
from .construction import build_random_graph, construct_rich_owner_graph
from .crt import HashScheme, isolation_probability
from .experiments import (
    ConfigError,
    ExperimentConfig,
    emit_report,
    report_json_text,
    run_experiment,
    validate_report,
)
from .graphs import LabeledBipartiteGraph, SeededGraph, load_graph, save_graph
from .oracles import CountingOracle, named_correlation_set
from .protocol import (
    Codeword,
    conditional_profile,
    decode_full,
    decode_known_profile,
    decode_membership,
    encode as protocol_encode,
    rates_from_profile,
    rates_violating_total,
    RateVector,
)
from .rng import SeedStream, derive_seed
from .scenarios import SourceDistribution, entropy_profile
from .verification import BFamily, check_prefix_extractor, rich_owner_fraction


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph_any(path: str) -> LabeledBipartiteGraph:
    """Load a binary graph file or rebuild one from a JSON descriptor."""
    if path.endswith(".json"):
        with open(path) as fh:
            desc = json.load(fh)
        kind = desc["kind"]
        if kind == "pipeline":
            g, _ = construct_rich_owner_graph(
                desc["n"], desc["k"], Fraction(desc["delta"]), seed=desc["seed"],
                max_retries=desc.get("max_retries", 10), c=desc.get("c", 4),
            )
            return g
        if kind == "binning":
            return SeededGraph(desc["n"], desc["k"], 0, desc["seed"])
        if kind == "random":
            return build_random_graph(
                desc["n"], desc["k"], Fraction(desc["epsilon"]),
                desc.get("c", 4), desc["seed"],
            )
        raise ConfigError(f"unknown graph descriptor kind {kind!r}")
    return load_graph(path)


def _cmd_build_graph(args) -> int:
    if args.kind == "pipeline":
        g, report = construct_rich_owner_graph(
            args.n, args.k, Fraction(args.delta), seed=args.seed,
            max_retries=args.max_retries, c=args.c,
        )
        desc = {
            "kind": "pipeline", "n": args.n, "k": args.k, "delta": args.delta,
            "seed": args.seed, "c": args.c, "max_retries": args.max_retries,
        }
        with open(args.out, "w") as fh:
            json.dump(desc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(report.as_record() + "\n")
        print(f"built pipeline graph n={args.n} k={args.k} m={g.m} "
              f"gamma={report.gamma} retries={report.retries} -> {args.out}")
        return 0
    if args.kind == "random":
        g = build_random_graph(args.n, args.k, Fraction(args.epsilon), args.c, args.seed)
    else:  # binning
        g = SeededGraph(args.n, args.k, 0, args.seed)
    save_graph(g, args.out)
    print(f"built {args.kind} graph n={g.n} m={g.m} D={g.degree} -> {args.out}")
    return 0


def _parse_family(spec: str, seed: int) -> BFamily:
    kind, _, rest = spec.partition(":")
    args = {}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            args[key.strip()] = int(value)
    if kind == "exhaustive":
        return BFamily(mode="exhaustive", min_size=args.get("min_size", 1),
                       max_size=args.get("max_size"))
    if kind == "all-of-size":
        return BFamily(mode="all-of-size", size=args["size"])
    if kind == "sampled":
        return BFamily(mode="sampled", size=args["size"],
                       count=args.get("count", 100), seed=args.get("seed", seed))
    raise ConfigError(f"unknown family spec {spec!r}")


def _cmd_verify_graph(args) -> int:
    g = _load_graph_any(args.graph)
    family = _parse_family(args.family, args.seed)
    if args.check == "extractor":
        report = check_prefix_extractor(g, Fraction(args.epsilon), family)
    else:
        report = rich_owner_fraction(g, family, args.k, Fraction(args.delta))
    _write_json(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_hash_audit(args) -> int:
    scheme = HashScheme(args.n, args.s, Fraction(args.epsilon))
    stream = SeedStream(derive_seed(args.seed, "hash-audit"))
    worst = Fraction(1)
    below = 0
    for _ in range(args.trials):
        u1 = stream.bits(args.n)
        distractors = set()
        while len(distractors) < args.s - 1:
            v = stream.bits(args.n)
            if v != u1:
                distractors.add(v)
        p = isolation_probability(u1, distractors, scheme)
        worst = min(worst, p)
        if p < 1 - scheme.epsilon:
            below += 1
    _write_json({
        "n": args.n, "s": args.s, "epsilon": str(scheme.epsilon), "t": scheme.t,
        "trials": args.trials, "worst_isolation": str(worst),
        "below_target": below,
    }, args.out)
    return 0 if below == 0 else 1


def _cmd_profile(args) -> int:
    kind = args.scenario.partition(":")[0]
    if kind == "dms":
        pairs = args.scenario.partition(":")[2]
        mapping = {}
        for part in pairs.split(","):
            key, _, value = part.partition("=")
            mapping[key.strip()] = Fraction(value)
        dist = SourceDistribution.from_mapping(mapping)
        values = entropy_profile(dist, args.n)
        _write_json({
            "scenario": args.scenario,
            "entropy_profile": {
                name: v for name, v in zip(
                    ("A", "B", "C", "AB", "AC", "BC", "ABC"), values)
            },
        }, args.out)
        return 0
    S = named_correlation_set(args.scenario)
    oracle = CountingOracle(S)
    profile = oracle.profile()
    _write_json({
        "scenario": args.scenario,
        "n": S.n,
        "members": len(S),
        "profile": profile.as_dict(),
    }, args.out)
    return 0


def _cmd_encode(args) -> int:
    g = _load_graph_any(args.graph)
    x = BitString.from_hex(args.input, args.width)
    scheme = None
    if args.scheme:
        n, s, eps = args.scheme.split(",")
        scheme = HashScheme(int(n), int(s), Fraction(eps))
    cw = protocol_encode(g, x, scheme, args.seed, sender=args.sender)
    _write_json(cw.to_json(), args.out)
    return 0


def _cmd_decode(args) -> int:
    with open(args.codewords) as fh:
        codewords = [Codeword.from_json(obj) for obj in json.load(fh)]
    graphs = [_load_graph_any(p) for p in args.graphs.split(",")]
    S = named_correlation_set(args.scenario)
    if args.decoder == "membership":
        result = decode_membership(codewords, S, graphs)
    else:
        oracle = CountingOracle(S)
        conds = conditional_profile(oracle, None)
        if args.rates.startswith("profile+"):
            slack = int(args.rates.removeprefix("profile+"))
            rates = rates_from_profile(conds, slack, cap=S.n + slack)
        elif args.rates.startswith("total-"):
            rates = rates_violating_total(conds, int(args.rates.removeprefix("total-")))
        else:
            rates = RateVector(*(int(p) for p in args.rates.split(",")))
        if args.decoder == "known-profile":
            result = decode_known_profile(
                codewords, oracle.profile(), rates, oracle, graphs, slack=args.slack
            )
        else:
            result = decode_full(codewords, rates, oracle, graphs, n=S.n,
                                 slack=args.slack)
    _write_json(result.to_json(), args.out)
    return 0 if result.ok else 1


def _cmd_experiment(args) -> int:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = value
    config = ExperimentConfig.load(args.config, overrides)
    report = run_experiment(config)
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"wrote {args.format} report -> {args.out}")
    else:
        sys.stdout.write(report_json_text(report))
    agg = report.aggregates
    print(f"trials={agg['trials']} successes={agg['successes']} "
          f"success_rate={agg['success_rate']}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    with open(args.input) as fh:
        obj = json.load(fh)
    problems = validate_report(obj)
    if problems:
        for p in problems:
            print(f"schema violation: {p}", file=sys.stderr)
        return 1
    if args.format == "json":
        _write_json(obj, args.out)
    else:
        import csv as _csv
        rows = obj["trials"]
        out = sys.stdout if not args.out else open(args.out, "w")
        try:
            writer = _csv.writer(out, lineterminator="\n")
            writer.writerow(["trial", "seed", "rates", "status", "correct",
                             "steps", "survivors"])
            for r in rows:
                writer.writerow([r["trial"], r["seed"], r["rates"], r["status"],
                                 int(r["correct"]), r["steps"],
                                 "" if r["survivors"] is None else r["survivors"]])
        finally:
            if args.out:
                out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richowner",
        description="Distributed-compression simulator over rich-owner graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build a graph and write it out")
    p.add_argument("--kind", choices=("pipeline", "random", "binning"),
                   default="pipeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", default="1/2")
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--c", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-retries", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("verify-graph", help="audit a graph property")
    p.add_argument("--graph", required=True)
    p.add_argument("--check", choices=("extractor", "richness"), required=True)
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--delta", default="1/2")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--family", default="exhaustive")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_graph)

    p = sub.add_parser("hash-audit", help="isolation statistics for a scheme")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--epsilon", default="1/10")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hash_audit)

    p = sub.add_parser("profile", help="profile of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, default=8, help="draw count for dms scenarios")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("encode", help="encode one input through a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--input", required=True, help="hex value of the source string")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--scheme", help="tag scheme as n,s,epsilon")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sender", default="A")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a codeword triple")
    p.add_argument("--codewords", required=True, help="JSON file with 3 codewords")
    p.add_argument("--graphs", required=True, help="comma-separated graph paths")
    p.add_argument("--scenario", required=True)
    p.add_argument("--decoder", choices=("membership", "known-profile", "full"),
                   default="membership")
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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
