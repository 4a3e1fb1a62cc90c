"""Batch experiment runner and report emitter.

An experiment is a pure function of its flat key=value configuration
(including the master seed): graphs are built or loaded, encode/decode
trials run with per-trial derived seeds, and the aggregates land in a
schema-stable report.  Running the same config twice yields byte-identical
JSON.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Optional

from . import __version__
from .bits import BitString
from .construction import ConstructionReport, build_random_graph, construct_rich_owner_graph
from .crt import HashScheme
from .graphs import LabeledBipartiteGraph, SeededGraph
from .oracles import (
    ComplexityProfile,
    CorrelationSet,
    CountingOracle,
    ToyMachineConfig,
    ToyOracle,
    named_correlation_set,
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
from .specs import GRAPHS, ORACLES, SCENARIOS, ConfigError, key_values, parse_spec

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
        master seed from both sources.
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
        types = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(values) - set(types)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        for key, val in values.items():
            try:
                values[key] = types[key](val)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {val!r}") from None
        for key in ("trials", "max_retries", "step_budget"):
            if values.get(key, 0) < 0:
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
class ExperimentReport:
    config: ExperimentConfig
    aggregates: dict
    graph_summaries: list
    rows: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.as_dict(),
            "aggregates": self.aggregates,
            "graphs": self.graph_summaries,
            "trials": [asdict(r) for r in self.rows],
        }


# -- scenario/oracle/graph resolution -------------------------------------------

@dataclass
class _Scenario:
    n: int
    S: Optional[CorrelationSet] = None
    planted_width: int = 0

    def triple(self, trial_seed: int):
        if self.S is not None:
            idx = SeedStream(derive_seed(trial_seed, "pick")).randrange(len(self.S))
            return self.S.triple_at(idx)
        # planted low-complexity triples: two seeded half-period strings
        # shared among coordinates according to a seeded pattern.
        stream = SeedStream(derive_seed(trial_seed, "plant"))
        half = self.planted_width // 2
        first = stream.bits(half)
        second = stream.bits(half)
        base = [
            BitString(self.planted_width, (first << half) | first),
            BitString(self.planted_width, (second << half) | second),
        ]
        pattern = (
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0),
        )[stream.randrange(4)]
        return tuple(base[i] for i in pattern)


def _resolve_scenario(spec: str) -> _Scenario:
    kind, args = parse_spec(spec, SCENARIOS)
    if kind == "planted":
        if args["n"] % 2:
            raise ConfigError("planted scenario needs an even width")
        return _Scenario(n=args["n"], planted_width=args["n"])
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
    if spec.startswith("profile+"):
        slack = int(spec.removeprefix("profile+"))
        conds = conditional_profile(oracle, triple, profile)
        width = triple[0].width if triple else n
        return rates_from_profile(conds, slack=slack, cap=width + slack)
    if spec.startswith("total-"):
        deficit = int(spec.removeprefix("total-"))
        conds = conditional_profile(oracle, triple, profile)
        return rates_violating_total(conds, deficit)
    parts = spec.split(",")
    if len(parts) == 3:
        return RateVector(*(int(p) for p in parts))
    raise ConfigError(f"cannot parse rates {spec!r}")


def build_graph(kind: str, n: int, k: int, seed: int, params: dict,
                max_retries: int) -> tuple[LabeledBipartiteGraph, dict,
                                           Optional[ConstructionReport]]:
    """One graph of a GRAPHS kind, its summary record, and for a verified
    pipeline graph its construction report (None for the other kinds).

    `params` holds the kind's spec arguments (delta and c for pipeline,
    epsilon and c for random); max_retries bounds pipeline verification.
    """
    if kind == "pipeline":
        g, report = construct_rich_owner_graph(
            n, k, params["delta"], seed=seed, max_retries=max_retries, c=params["c"],
        )
        return g, {
            "kind": kind, "k": k, "m": g.m, "gamma": report.gamma, "D": report.D,
            "ell": report.ell, "retries": report.retries,
        }, report
    if kind == "binning":
        g = SeededGraph(n, k, 0, seed)
    else:
        g = build_random_graph(n, k, params["epsilon"], params["c"], seed)
    return g, {
        "kind": kind, "k": k, "m": g.m, "gamma": 0, "D": g.degree, "ell": 1,
        "retries": 0,
    }, None


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
            self.summaries.append({"sender": "ABC"[sender], **summary})
            self.cache[key] = g
        return self.cache[key]


# -- the runner -------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured trials; fully deterministic given the config."""
    scenario = _resolve_scenario(config.scenario)
    oracle = _resolve_oracle(config.oracle, scenario)
    staged = config.decoder in ("known-profile", "full")
    if config.decoder not in ("membership", "known-profile", "full"):
        raise ConfigError(f"unknown decoder {config.decoder!r}")
    if config.decoder == "membership" and scenario.S is None:
        raise ConfigError("membership decoding needs an enumerable scenario")
    bank = _GraphBank(config.graphs, scenario.n, config.seed, config.max_retries)
    scheme = HashScheme(scenario.n, 3, Fraction(1, scenario.n * scenario.n)) if staged else None

    rows: list[TrialRow] = []
    successes = wrong = failures = 0
    steps_total = 0
    survivors_total = 0
    payload_bits: set = set()
    for t in range(config.trials):
        trial_seed = derive_seed(config.seed, "trial", t)
        triple = scenario.triple(trial_seed)
        profile = oracle.profile(triple) if config.decoder == "known-profile" else None
        rates = _resolve_rates(config.rates, oracle, triple, scenario.n, profile)
        graphs = [bank.for_rate(i, rates[i]) for i in range(3)]
        codewords = [
            encode(graphs[i], triple[i], scheme, derive_seed(trial_seed, "enc", i),
                   sender="ABC"[i])
            for i in range(3)
        ]
        payload_bits.add(tuple(cw.payload.width for cw in codewords))
        if config.decoder == "membership":
            result = decode_membership(codewords, scenario.S, graphs)
        elif config.decoder == "known-profile":
            result = decode_known_profile(
                codewords, profile, rates, oracle, graphs,
                slack=config.slack, step_budget=config.step_budget,
            )
        else:
            result = decode_full(
                codewords, rates, oracle, graphs,
                slack=config.slack, step_budget=config.step_budget,
            )
        correct = bool(result.ok and result.triple == tuple(triple))
        if correct:
            successes += 1
        elif result.ok:
            wrong += 1
        else:
            failures += 1
        steps_total += result.steps
        if result.survivors is not None:
            survivors_total += result.survivors
        rows.append(TrialRow(
            trial=t, seed=trial_seed, rates=",".join(str(r) for r in rates),
            status=result.status, correct=correct, steps=result.steps,
            survivors=result.survivors,
        ))

    trials = config.trials
    aggregates = {
        "trials": trials,
        "successes": successes,
        "wrong_answers": wrong,
        "failures": failures,
        "success_rate": (successes / trials) if trials else None,
        "mean_steps": (steps_total / trials) if trials else None,
        "mean_survivors": (survivors_total / trials)
        if trials and config.decoder == "membership" else None,
        "payload_bits": sorted(list(b) for b in payload_bits),
    }
    return ExperimentReport(
        config=config, aggregates=aggregates,
        graph_summaries=sorted(bank.summaries, key=lambda s: (s["sender"], s["k"])),
        rows=rows,
    )


# -- emission ----------------------------------------------------------------------

def report_json_text(report: ExperimentReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def trials_csv_text(trials: list[dict]) -> str:
    """One CSV row per trial record (as in a JSON report), booleans as 0/1."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRIAL_COLUMNS)
    for t in trials:
        writer.writerow([int(t[c]) if c == "correct" else t[c] for c in TRIAL_COLUMNS])
    return buf.getvalue()


def report_text(report: ExperimentReport, fmt: str) -> str:
    """The report as JSON (with aggregates) or as CSV (one row per trial)."""
    if fmt == "json":
        return report_json_text(report)
    if fmt == "csv":
        return trials_csv_text(report.to_json()["trials"])
    raise ConfigError(f"unknown report format {fmt!r}")


def emit_report(report: ExperimentReport, fmt: str, path: str) -> None:
    """Write the report_text of the given format to path."""
    text = report_text(report, fmt)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# -- schema -------------------------------------------------------------------------

REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "config", "aggregates", "graphs", "trials"],
    "properties": {
        "version": {"type": "string"},
        "config": {
            "type": "object",
            "required": sorted(f.name for f in fields(ExperimentConfig)),
        },
        "aggregates": {
            "type": "object",
            "required": [
                "trials", "successes", "wrong_answers", "failures",
                "success_rate", "mean_steps", "mean_survivors", "payload_bits",
            ],
        },
        "graphs": {"type": "array"},
        "trials": {
            "type": "array",
            "items": {
                "type": "object",
                "required": TRIAL_COLUMNS,
            },
        },
    },
}

_TYPES = {"object": dict, "array": list, "string": str}


def validate_report(obj: dict) -> list[str]:
    """Minimal structural validation against REPORT_SCHEMA; returns a list
    of problems (empty = ok)."""
    problems: list[str] = []

    def walk(node, spec, path):
        expected = _TYPES.get(spec.get("type"))
        if expected and not isinstance(node, expected):
            problems.append(f"{path}: expected {spec['type']}")
            return
        if spec.get("type") == "object":
            for key in spec.get("required", []):
                if key not in node:
                    problems.append(f"{path}: missing key {key!r}")
            for key, sub in spec.get("properties", {}).items():
                if key in node:
                    walk(node[key], sub, f"{path}.{key}")
        if spec.get("type") == "array" and "items" in spec:
            for i, item in enumerate(node):
                walk(item, spec["items"], f"{path}[{i}]")

    walk(obj, REPORT_SCHEMA, "$")
    return problems
