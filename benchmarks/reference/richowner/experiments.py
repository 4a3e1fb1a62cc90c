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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import __version__
from .bits import BitString
from .construction import build_random_graph, construct_rich_owner_graph
from .crt import HashScheme
from .graphs import LabeledBipartiteGraph, SeededGraph
from .oracles import (
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

SEED_ENV_VAR = "RICHOWNER_SEED"

_CONFIG_KEYS = {
    "scenario", "oracle", "decoder", "rates", "graphs", "trials", "seed",
    "slack", "max_retries", "step_budget",
}


class ConfigError(ValueError):
    pass


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
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(f"malformed config line: {line!r}")
                    key, _, val = line.partition("=")
                    values[key.strip()] = val.strip()
        for key, val in (overrides or {}).items():
            values[key] = val
        env = os.environ if env is None else env
        if env.get(SEED_ENV_VAR):
            values["seed"] = env[SEED_ENV_VAR]
        unknown = set(values) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        for int_key in ("trials", "seed", "slack", "max_retries", "step_budget"):
            if int_key in values:
                values[int_key] = int(values[int_key])
        return cls(**values)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "oracle": self.oracle,
            "decoder": self.decoder,
            "rates": self.rates,
            "graphs": self.graphs,
            "trials": self.trials,
            "seed": self.seed,
            "slack": self.slack,
            "max_retries": self.max_retries,
            "step_budget": self.step_budget,
        }


@dataclass
class TrialRow:
    trial: int
    seed: int
    rates: str
    status: str
    correct: bool
    steps: int
    survivors: Optional[int]

    def as_list(self) -> list:
        return [self.trial, self.seed, self.rates, self.status,
                int(self.correct), self.steps,
                "" if self.survivors is None else self.survivors]


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
            "trials": [
                {
                    "trial": r.trial, "seed": r.seed, "rates": r.rates,
                    "status": r.status, "correct": r.correct, "steps": r.steps,
                    "survivors": r.survivors,
                }
                for r in self.rows
            ],
        }


# -- scenario/oracle/graph resolution -------------------------------------------

def _parse_kv_args(rest: str) -> dict:
    args = {}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            args[key.strip()] = value.strip()
    return args


@dataclass
class _Scenario:
    n: int
    kind: str
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
    kind, _, rest = spec.partition(":")
    args = _parse_kv_args(rest)
    if kind == "collinear":
        q = int(args["q"])
        return _Scenario(n=2 * q, kind=kind, S=named_correlation_set(f"collinear:q={q}"))
    if kind in ("diagonal", "cube"):
        S = named_correlation_set(spec)
        return _Scenario(n=S.n, kind=kind, S=S)
    if kind == "file":
        if "=" in rest:
            path, n = args["path"], int(args["n"])
        else:
            # bare form file:<path>; width inferred from the widest value
            path, n = rest, None
        if n is None:
            probe = CorrelationSet.from_file(path, 63)
            n = max(1, int(probe.members.max()).bit_length())
        S = CorrelationSet.from_file(path, n)
        return _Scenario(n=S.n, kind=kind, S=S)
    if kind == "planted":
        n = int(args.get("n", 8))
        if n % 2:
            raise ConfigError("planted scenario needs an even width")
        return _Scenario(n=n, kind=kind, planted_width=n)
    raise ConfigError(f"unknown scenario {spec!r}")


def _resolve_oracle(spec: str, scenario: _Scenario):
    kind, _, rest = spec.partition(":")
    args = _parse_kv_args(rest)
    if kind == "counting":
        if scenario.S is None:
            raise ConfigError("counting oracle needs an enumerable scenario")
        return CountingOracle(scenario.S)
    if kind == "toy":
        cfg = ToyMachineConfig(
            max_len=int(args.get("L", 12)), step_budget=int(args.get("T", 200))
        )
        return ToyOracle(cfg)
    raise ConfigError(f"unknown oracle {spec!r}")


def _resolve_rates(spec: str, oracle, triple, slack_default: int) -> RateVector:
    if spec.startswith("profile+"):
        slack = int(spec.removeprefix("profile+"))
        conds = conditional_profile(oracle, triple)
        n = triple[0].width if triple else None
        cap = (n + slack) if n is not None else None
        return rates_from_profile(conds, slack=slack, cap=cap)
    if spec.startswith("total-"):
        deficit = int(spec.removeprefix("total-"))
        conds = conditional_profile(oracle, triple)
        return rates_violating_total(conds, deficit)
    parts = spec.split(",")
    if len(parts) == 3:
        return RateVector(*(int(p) for p in parts))
    raise ConfigError(f"cannot parse rates {spec!r}")


class _GraphBank:
    """Builds and caches per-sender graphs keyed by their effective width."""

    def __init__(self, spec: str, n: int, seed: int, max_retries: int):
        self.kind, _, rest = spec.partition(":")
        self.args = _parse_kv_args(rest)
        self.n = n
        self.seed = seed
        self.max_retries = max_retries
        self.cache: dict = {}
        self.summaries: list = []
        if self.kind not in ("pipeline", "binning", "random"):
            raise ConfigError(f"unknown graph spec {spec!r}")

    def for_rate(self, sender: int, rate: int) -> LabeledBipartiteGraph:
        k = max(1, min(rate, self.n))
        key = (sender, k)
        if key in self.cache:
            return self.cache[key]
        seed = derive_seed(self.seed, "graph", sender, k)
        if self.kind == "pipeline":
            delta = Fraction(self.args.get("delta", "1/2"))
            g, report = construct_rich_owner_graph(
                self.n, k, delta, seed=seed, max_retries=self.max_retries,
                c=int(self.args.get("c", 4)),
            )
            self.summaries.append({
                "sender": "ABC"[sender], "kind": "pipeline", "k": k,
                "m": g.m, "gamma": report.gamma, "D": report.D,
                "ell": report.ell, "retries": report.retries,
            })
        elif self.kind == "binning":
            g = SeededGraph(self.n, k, 0, seed)
            self.summaries.append({
                "sender": "ABC"[sender], "kind": "binning", "k": k, "m": k,
                "gamma": 0, "D": 1, "ell": 1, "retries": 0,
            })
        else:
            epsilon = Fraction(self.args.get("epsilon", "1/4"))
            g = build_random_graph(self.n, k, epsilon, int(self.args.get("c", 4)), seed)
            self.summaries.append({
                "sender": "ABC"[sender], "kind": "random", "k": k, "m": g.m,
                "gamma": 0, "D": g.degree, "ell": 1, "retries": 0,
            })
        self.cache[key] = g
        return g


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
        rates = _resolve_rates(config.rates, oracle, triple, config.slack)
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
            profile = oracle.profile(triple)
            result = decode_known_profile(
                codewords, profile, rates, oracle, graphs,
                slack=config.slack, step_budget=config.step_budget,
            )
        else:
            result = decode_full(
                codewords, rates, oracle, graphs, n=scenario.n,
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

CSV_COLUMNS = ["trial", "seed", "rates", "status", "correct", "steps", "survivors"]


def report_json_text(report: ExperimentReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def report_csv_text(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(row.as_list())
    return buf.getvalue()


def emit_report(report: ExperimentReport, fmt: str, path: str) -> None:
    """Write the report; JSON carries aggregates, CSV one row per trial."""
    if fmt == "json":
        text = report_json_text(report)
    elif fmt == "csv":
        text = report_csv_text(report)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
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
            "required": sorted(_CONFIG_KEYS),
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
                "required": [
                    "trial", "seed", "rates", "status", "correct", "steps",
                    "survivors",
                ],
            },
        },
    },
}

_TYPES = {"object": dict, "array": list, "string": str}


def validate_report(obj: dict, schema: dict = None) -> list[str]:
    """Minimal structural validation; returns a list of problems (empty = ok)."""
    schema = schema or REPORT_SCHEMA
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

    walk(obj, schema, "$")
    return problems
