"""Batch experiment runner and report emitter.

An experiment is a pure function of its flat key=value configuration
(including the master seed): graphs are built or loaded, encode/decode
trials run with per-trial derived seeds, and the aggregates land in a
schema-stable report.  Running the same config twice yields byte-identical
JSON.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Optional, get_args, get_type_hints

from . import __version__
from .bits import BitString
from .construction import ConstructionReport, build_random_graph, construct_rich_owner_graph
from .crt import HashScheme
from .graphs import LabeledBipartiteGraph, SeededGraph
from .oracles import (
    SENDERS,
    ComplexityProfile,
    CorrelationSet,
    CountingOracle,
    ToyMachineConfig,
    ToyOracle,
)
from .protocol import (
    RateVector,
    conditional_profile,
    decode_full,
    decode_known_profile,
    decode_membership,
    encode,
    rates_from_profile,
    rates_violating_total,
)
from .rng import SeedStream, derive_seed
from .scenarios import named_correlation_set
from .specs import (
    GRAPHS, ORACLES, SCENARIOS, ConfigError, comma_fields, key_values, parse_spec, spec_args,
)

SEED_ENV_VAR = "RICHOWNER_SEED"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "collinear:q=2"
    oracle: str = "counting"
    decoder: str = "membership"
    rates: str = "profile+2"
    graphs: str = "pipeline:delta=1/2"
    trials: int = 100
    seed: int = 1
    slack: int = 2
    max_retries: int = 10
    step_budget: int = 10_000_000

    @classmethod
    def load(cls, path: Optional[str] = None, overrides: Optional[dict] = None,
             env: Optional[dict] = None) -> "ExperimentConfig":
        """Flat key=value file plus command-line overrides.

        The RICHOWNER_SEED environment variable, when set, overrides the
        master seed from both sources.  Keys and values are read by
        `specs.spec_args`, so their errors read as a spec's do.
        """
        values: dict = {}
        if path:
            with open(path) as fh:
                lines = [line.strip() for line in fh]
            values = key_values(
                [line for line in lines if line and not line.startswith("#")],
                f"config {path}",
            )
        values.update(overrides or {})
        env = os.environ if env is None else env
        if env.get(SEED_ENV_VAR):
            values["seed"] = env[SEED_ENV_VAR]
        keys = {f.name: (type(f.default), f.default) for f in fields(cls)}
        values = spec_args({"config": keys}, "config", values, "config")
        for key in ("trials", "max_retries", "step_budget"):
            if values[key] < 0:
                raise ConfigError(f"config key {key!r}: must be >= 0, got {values[key]}")
        return cls(**values)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrialRow:
    trial: int
    seed: int
    rates: str
    status: str
    correct: bool
    steps: int
    survivors: Optional[int]


TRIAL_COLUMNS = [f.name for f in fields(TrialRow)]


@dataclass
class Aggregates:
    """Totals over a run's trial rows; the means are None without trials,
    and mean_survivors is None unless the rows carry survivor counts (as
    membership decoding's do)."""

    trials: int
    successes: int
    wrong_answers: int
    failures: int
    success_rate: Optional[float]
    mean_steps: Optional[float]
    mean_survivors: Optional[float]
    payload_bits: list

    @classmethod
    def of(cls, rows: list[TrialRow], payload_bits: set) -> "Aggregates":
        trials = len(rows)
        successes = sum(r.correct for r in rows)
        failures = sum(r.status != "ok" for r in rows)
        survivors = [r.survivors for r in rows if r.survivors is not None]
        return cls(
            trials=trials, successes=successes,
            wrong_answers=trials - successes - failures, failures=failures,
            success_rate=(successes / trials) if trials else None,
            mean_steps=(sum(r.steps for r in rows) / trials) if trials else None,
            mean_survivors=(sum(survivors) / trials) if survivors else None,
            payload_bits=sorted(list(b) for b in payload_bits),
        )


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    aggregates: dict
    graph_summaries: list
    rows: list = field(default_factory=list)

    def to_json(self) -> dict:
        """A new JSON object: editing it leaves the report as it is."""
        return {
            "version": __version__,
            "config": self.config.as_dict(),
            "aggregates": copy.deepcopy(self.aggregates),
            "graphs": copy.deepcopy(self.graph_summaries),
            "trials": [asdict(r) for r in self.rows],
        }


# -- scenario/oracle/graph resolution -------------------------------------------

@dataclass
class _Scenario:
    n: int
    S: Optional[CorrelationSet] = None

    def triple(self, trial_seed: int):
        if self.S is not None:
            idx = SeedStream(derive_seed(trial_seed, "pick")).randrange(len(self.S))
            return self.S.triple_at(idx)
        # planted low-complexity triples: two seeded half-period strings
        # shared among coordinates according to a seeded pattern.
        stream = SeedStream(derive_seed(trial_seed, "plant"))
        half = self.n // 2
        first = stream.bits(half)
        second = stream.bits(half)
        base = [
            BitString(self.n, (first << half) | first),
            BitString(self.n, (second << half) | second),
        ]
        pattern = (
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0),
        )[stream.randrange(4)]
        return tuple(base[i] for i in pattern)


def _resolve_scenario(spec: str) -> _Scenario:
    kind, args = parse_spec(spec, SCENARIOS)
    if kind == "planted":
        if args["n"] < 2 or args["n"] % 2:
            raise ConfigError(f"spec {spec!r}: width n={args['n']} must be even and >= 2")
        return _Scenario(n=args["n"])
    S = named_correlation_set(spec)
    return _Scenario(n=S.n, S=S)


def _resolve_oracle(spec: str, scenario: _Scenario):
    kind, args = parse_spec(spec, ORACLES)
    if kind == "toy":
        return ToyOracle(ToyMachineConfig(max_len=args["L"], step_budget=args["T"]))
    if scenario.S is None:
        raise ConfigError("counting oracle needs an enumerable scenario")
    return CountingOracle(scenario.S)


def _resolve_rates(spec: str, oracle, triple, n: int,
                   profile: Optional[ComplexityProfile] = None) -> RateVector:
    """Rates from `profile+S` (profile rates plus slack S, each capped at
    the string width plus S), `total-D` (balanced rates D short of the
    triple requirement) or an explicit `a,b,c`.

    The width is the triple's when a triple is given, otherwise n.
    `profile`, when given, is oracle.profile(triple), already computed.
    """
    where = f"cannot parse rates {spec!r}"
    if spec.startswith("profile+"):
        (slack,) = comma_fields(spec.removeprefix("profile+"), (int,), where)
        width = triple[0].width if triple else n
        if width + slack < 0:
            raise ConfigError(f"rates {spec!r}: width {width} + slack {slack} caps "
                              f"every rate below 0")
        conds = conditional_profile(oracle, triple, profile)
        return rates_from_profile(conds, slack=slack, cap=width + slack)
    if spec.startswith("total-"):
        (deficit,) = comma_fields(spec.removeprefix("total-"), (int,), where)
        conds = conditional_profile(oracle, triple, profile)
        make, args = rates_violating_total, (conds, deficit)
    else:
        make, args = RateVector, comma_fields(spec, (int, int, int), where)
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"rates {spec!r}: {exc}") from None


def build_graph(kind: str, n: int, k: int, seed: int, params: dict,
                max_retries: int) -> tuple[LabeledBipartiteGraph, dict,
                                           Optional[ConstructionReport]]:
    """One graph of a GRAPHS kind, its summary record, and for a verified
    pipeline graph its construction report (None for the other kinds).

    `params` holds the kind's GRAPHS arguments; max_retries bounds pipeline
    verification.
    """
    report = None
    if kind == "pipeline":
        g, report = construct_rich_owner_graph(
            n, k, params["delta"], seed=seed, max_retries=max_retries, c=params["c"],
        )
    elif kind == "binning":
        g = SeededGraph(n, k, 0, seed)
    else:
        g = build_random_graph(n, k, params["epsilon"], params["c"], seed)
    ell, retries = (report.ell, report.retries) if report else (1, 0)
    return g, {
        "kind": kind, "k": k, "m": g.m, "gamma": g.m - k, "D": g.degree // ell,
        "ell": ell, "retries": retries,
    }, report


class _GraphBank:
    """Builds and caches per-sender graphs keyed by their effective width."""

    def __init__(self, spec: str, n: int, seed: int, max_retries: int):
        self.kind, self.params = parse_spec(spec, GRAPHS)
        self.n = n
        self.seed = seed
        self.max_retries = max_retries
        self.cache: dict = {}
        self.summaries: list = []

    def for_rate(self, sender: int, rate: int) -> LabeledBipartiteGraph:
        k = max(1, min(rate, self.n))
        key = (sender, k)
        if key not in self.cache:
            seed = derive_seed(self.seed, "graph", sender, k)
            g, summary, _ = build_graph(self.kind, self.n, k, seed, self.params,
                                        self.max_retries)
            self.summaries.append({"sender": SENDERS[sender], **summary})
            self.cache[key] = g
        return self.cache[key]


# -- the runner -------------------------------------------------------------------

DECODERS = ("membership", "known-profile", "full")


def decode_triple(decoder: str, codewords, graphs, S: Optional[CorrelationSet], oracle,
                  rates: Optional[RateVector], profile: Optional[ComplexityProfile],
                  slack: int, step_budget: int = ExperimentConfig.step_budget):
    """Decode one codeword triple with one of DECODERS, each called by the
    name this module imports, so that a wrapper installed here sees it."""
    if decoder == "membership":
        return decode_membership(codewords, S, graphs)
    if decoder == "known-profile":
        return decode_known_profile(codewords, profile, rates, oracle, graphs,
                                    slack=slack, step_budget=step_budget)
    if decoder == "full":
        return decode_full(codewords, rates, oracle, graphs,
                           slack=slack, step_budget=step_budget)
    raise ConfigError(f"unknown decoder {decoder!r}")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured trials; fully deterministic given the config."""
    if config.decoder not in DECODERS:
        raise ConfigError(f"unknown decoder {config.decoder!r}")
    scenario = _resolve_scenario(config.scenario)
    oracle = _resolve_oracle(config.oracle, scenario)
    staged = config.decoder in ("known-profile", "full")
    if config.decoder == "membership" and scenario.S is None:
        raise ConfigError("membership decoding needs an enumerable scenario")
    bank = _GraphBank(config.graphs, scenario.n, config.seed, config.max_retries)
    scheme = HashScheme(scenario.n, 3, Fraction(1, scenario.n * scenario.n)) if staged else None

    rows: list[TrialRow] = []
    payload_bits: set = set()
    for t in range(config.trials):
        trial_seed = derive_seed(config.seed, "trial", t)
        triple = scenario.triple(trial_seed)
        profile = oracle.profile(triple) if config.decoder == "known-profile" else None
        rates = _resolve_rates(config.rates, oracle, triple, scenario.n, profile)
        graphs = [bank.for_rate(i, rates[i]) for i in range(3)]
        codewords = [
            encode(graphs[i], triple[i], scheme, derive_seed(trial_seed, "enc", i),
                   sender=SENDERS[i])
            for i in range(3)
        ]
        payload_bits.add(tuple(cw.payload.width for cw in codewords))
        result = decode_triple(config.decoder, codewords, graphs, scenario.S, oracle,
                               rates, profile, config.slack, config.step_budget)
        rows.append(TrialRow(
            trial=t, seed=trial_seed, rates=",".join(str(r) for r in rates),
            status=result.status, correct=bool(result.ok and result.triple == tuple(triple)),
            steps=result.steps, survivors=result.survivors,
        ))

    aggregates = Aggregates.of(rows, payload_bits)
    return ExperimentReport(
        config=config, aggregates=asdict(aggregates),
        graph_summaries=sorted(bank.summaries, key=lambda s: (s["sender"], s["k"])),
        rows=rows,
    )


# -- emission ----------------------------------------------------------------------

def report_text(obj: dict, fmt: str) -> str:
    """A report's JSON form (ExperimentReport.to_json) as JSON, or as CSV
    with one row per trial and booleans as 0/1."""
    if fmt == "json":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRIAL_COLUMNS)
        for t in obj["trials"]:
            writer.writerow([int(t[c]) if c == "correct" else t[c] for c in TRIAL_COLUMNS])
        return buf.getvalue()
    raise ConfigError(f"unknown report format {fmt!r}")


def report_json_text(report: ExperimentReport) -> str:
    return report_text(report.to_json(), "json")


# -- validation ---------------------------------------------------------------------

_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               bool: "boolean", type(None): "null"}
# the exact types each trial value may have, from TrialRow's annotations
_TRIAL_TYPES = {name: get_args(hint) or (hint,)
                for name, hint in get_type_hints(TrialRow).items()}


def _shape_problems(path: str, node, kind: type, required) -> list[str]:
    """A node that is not of the kind, or else the required keys it lacks."""
    if not isinstance(node, kind):
        return [f"{path}: expected {_JSON_TYPES[kind]}"]
    return [f"{path}: missing key {key!r}" for key in required if key not in node]


def validate_report(obj: dict) -> list[str]:
    """Structural check of a report's JSON form: the keys and types that
    ExperimentReport.to_json writes, and each trial value's TrialRow type
    (a bool is not an integer here, nor an integer a bool).  Returns the
    problems (empty = ok)."""
    parts = {
        "version": (str, ()),
        "config": (dict, sorted(f.name for f in fields(ExperimentConfig))),
        "aggregates": (dict, [f.name for f in fields(Aggregates)]),
        "graphs": (list, ()),
        "trials": (list, ()),
    }
    problems = _shape_problems("$", obj, dict, parts)
    if not isinstance(obj, dict):
        return problems
    for key, (kind, required) in parts.items():
        if key in obj:
            problems += _shape_problems(f"$.{key}", obj[key], kind, required)
    if isinstance(obj.get("trials"), list):
        for i, trial in enumerate(obj["trials"]):
            path = f"$.trials[{i}]"
            problems += _shape_problems(path, trial, dict, TRIAL_COLUMNS)
            if isinstance(trial, dict):
                problems += [
                    f"{path}.{key}: expected {' or '.join(_JSON_TYPES[t] for t in kinds)}, "
                    f"got {trial[key]!r}"
                    for key, kinds in _TRIAL_TYPES.items()
                    if key in trial and type(trial[key]) not in kinds]
    return problems
