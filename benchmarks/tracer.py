"""Spans around the public entry points of each richowner module.

The traced experiment process (traced_child.py) replaces each target below
with a wrapper that records one span per call: name, start, end, parent
span and trial id, plus one integer count taken from the call's result.
Spans stay in memory in flat arrays and are written once, at the end, by
`Tracer.dump`.  `layer_metrics` turns a dump into the per-layer metrics.

Nothing here changes richowner's code or results: wrappers call the
original function and return its result unchanged.  A target missing from
the code under test is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from array import array

import numpy as np


def _steps(result) -> int:
    return result.steps


def _checked(report) -> int:
    return report.checked


def _attempts(result) -> int:
    return len(result[1].attempts)


# (module, attribute path, span name, count taken from the result)
TARGETS = (
    ("richowner.experiments", "run_experiment", "experiments.run", None),
    ("richowner.experiments", "named_correlation_set", "scenarios.members", None),
    ("richowner.experiments", "construct_rich_owner_graph", "construction.build", _attempts),
    ("richowner.verification", "check_prefix_extractor", "verification.extractor", _checked),
    ("richowner.crt", "primes_first", "crt.primes", None),
    ("richowner.construction", "primes_first", "crt.primes", None),
    ("richowner.protocol", "draw_hash_tag", "crt.tag", None),
    ("richowner.oracles", "CountingOracle.profile", "oracles.profile", None),
    ("richowner.oracles", "ToyOracle.profile", "oracles.profile", None),
    ("richowner.oracles", "CountingOracle.candidates", "oracles.candidates", len),
    ("richowner.oracles", "ToyOracle.candidates", "oracles.candidates", len),
    ("richowner.oracles", "ToyOracle.output_table", "oracles.toy_table", None),
    ("richowner.graphs", "LabeledBipartiteGraph.payload_consistent", "graphs.payload_check", None),
    ("richowner.graphs", "LabeledBipartiteGraph.payload_consistent_bulk", "graphs.payload_check", None),
    ("richowner.graphs", "SplitGraph.payload_consistent", "graphs.payload_check", None),
    ("richowner.graphs", "SplitGraph.payload_consistent_bulk", "graphs.payload_check", None),
    ("richowner.experiments", "encode", "protocol.encode", None),
    ("richowner.experiments", "conditional_profile", "protocol.rates", None),
    ("richowner.experiments", "rates_from_profile", "protocol.rates", None),
    ("richowner.experiments", "rates_violating_total", "protocol.rates", None),
    ("richowner.protocol", "_candidate_plans", "protocol.plan", None),
    ("richowner.protocol", "derive_decoding_bounds", "protocol.bounds", None),
    ("richowner.experiments", "decode_membership", "protocol.decode_membership", _steps),
    ("richowner.experiments", "decode_known_profile", "protocol.decode_known_profile", _steps),
    ("richowner.protocol", "decode_known_profile", "protocol.decode_known_profile", _steps),
    ("richowner.experiments", "decode_full", "protocol.decode_full", _steps),
)

DECODE_SPANS = ("protocol.decode_membership", "protocol.decode_known_profile",
                "protocol.decode_full")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.count = array("q")
        self._stack: list[int] = []
        self.current_trial = -1
        self.trial_marks: list[tuple[int, float]] = []
        self.branches_total = 0
        self.branches_distinct = 0
        self.skipped: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.current_trial)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """A function recording one span per call of fn."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.count[idx] = count(result)
            if name == "protocol.plan" and len(tracer.start) > idx + 1:
                tracer._note_built_plans(result)
            return result

        wrapper.__traced__ = name
        return wrapper

    def _note_built_plans(self, plans) -> None:
        """Branch reuse over plans this call built (it opened bounds spans)."""
        seen = set()
        for _values, plan in plans:
            for branch in plan.branches:
                self.branches_total += 1
                seen.add(branch.stages)
        self.branches_distinct += len(seen)

    def mark_trial(self, trial: int) -> None:
        self.current_trial = trial
        self.trial_marks.append((trial, self.clock()))

    def install(self) -> None:
        """Patch every target present in the code under test."""
        for module_name, path, name, count in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, attr = path.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{path}")
                continue
            setattr(holder, attr, self.wrap(original, name, count))
        # Trials start where run_experiment derives the per-trial seed that
        # the report's seed column records.
        experiments = importlib.import_module("richowner.experiments")
        derive = experiments.derive_seed

        def derive_seed(seed, *parts):
            if len(parts) == 2 and parts[0] == "trial":
                self.mark_trial(parts[1])
            return derive(seed, *parts)

        derive_seed.__traced__ = "trial-mark"
        experiments.derive_seed = derive_seed

    def as_spans(self) -> dict:
        """The recorded spans in the form load_spans returns."""
        meta = {
            "names": self.names,
            "trial_marks": self.trial_marks,
            "branches_total": self.branches_total,
            "branches_distinct": self.branches_distinct,
            "skipped": self.skipped,
        }
        ints = {key: np.frombuffer(getattr(self, key), dtype=np.int64)
                for key in ("name_id", "parent", "trial", "count")}
        floats = {key: np.frombuffer(getattr(self, key), dtype=np.float64)
                  for key in ("start", "end")}
        return {"meta": meta, **ints, **floats}

    def dump(self, path: str) -> None:
        spans = self.as_spans()
        np.savez(path, meta=np.array(json.dumps(spans.pop("meta"))), **spans)


def load_spans(path: str) -> dict:
    with np.load(path, allow_pickle=False) as data:
        spans = {key: data[key] for key in data.files if key != "meta"}
        spans["meta"] = json.loads(str(data["meta"]))
    return spans


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their durations add up to the covered time.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def tail_percentile(samples) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples above it.

    Percentiles are nearest-rank.  With ten samples or fewer no percentile
    qualifies, and the maximum is returned as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100)
        if rank <= n - 10:
            return pct, xs[rank - 1]
    return 100, xs[-1]


def trial_durations(trial_marks, run_end: float) -> list[float]:
    """Per-trial wall time: from one trial's start to the next's (or run end)."""
    stamps = [t for _, t in trial_marks] + [run_end]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics from one traced process (see NOTES.md for meanings)."""
    meta = spans["meta"]
    names = np.array(meta["names"] + ["<none>"])
    name_id, parent, count = spans["name_id"], spans["parent"], spans["count"]
    self_t = self_times(spans["start"], spans["end"], parent)
    name = names[name_id] if len(name_id) else np.array([], dtype=names.dtype)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], "<none>") \
        if len(name) else name

    def is_(n):
        return name == n

    def self_s(*ns):
        return float(self_t[np.isin(name, ns)].sum())

    def calls(n):
        return int(is_(n).sum())

    def outer_calls(n):
        return int((is_(n) & (parent_name != n)).sum())

    def total(n):
        return int(count[is_(n)].sum())

    under_plan = is_("protocol.bounds") & (parent_name == "protocol.plan")
    top_decode = np.isin(name, DECODE_SPANS) & ~np.isin(parent_name, DECODE_SPANS)
    run = is_("experiments.run")
    run_end = float(spans["end"][run].max()) if run.any() else 0.0
    trials = trial_durations(meta["trial_marks"], run_end) if meta["trial_marks"] else []
    tail_pct, tail = tail_percentile(trials) if trials else (0, 0.0)
    branches = meta["branches_total"]
    return {
        "oracles.profile_s": self_s("oracles.profile"),
        "oracles.profile_calls": calls("oracles.profile"),
        "oracles.candidates_s": self_s("oracles.candidates"),
        "oracles.candidates_calls": calls("oracles.candidates"),
        "oracles.candidates_returned": total("oracles.candidates"),
        "oracles.toy_table_s": self_s("oracles.toy_table"),
        "oracles.toy_table_calls": calls("oracles.toy_table"),
        "verification.extractor_s": self_s("verification.extractor"),
        "verification.sets_checked": total("verification.extractor"),
        "construction.build_s": self_s("construction.build"),
        "construction.attempts": total("construction.build"),
        "graphs.payload_check_s": self_s("graphs.payload_check"),
        "graphs.payload_checks": outer_calls("graphs.payload_check"),
        "crt.primes_s": self_s("crt.primes"),
        "crt.tag_s": self_s("crt.tag"),
        "protocol.encode_s": self_s("protocol.encode"),
        "protocol.rates_s": self_s("protocol.rates"),
        "protocol.plan_s": self_s("protocol.plan") + float(self_t[under_plan].sum()),
        "protocol.plans_built": int(under_plan.sum()),
        "protocol.branch_reuse": meta["branches_distinct"] / branches if branches else 0.0,
        "protocol.lanes_run": calls("protocol.decode_known_profile"),
        "protocol.decode_s": self_s(*DECODE_SPANS)
        + float(self_t[is_("protocol.bounds") & ~under_plan].sum()),
        "protocol.steps_total": int(count[top_decode].sum()),
        "scenarios.members_s": self_s("scenarios.members"),
        "experiments.self_s": self_s("experiments.run"),
        "experiments.trial_p50_s": statistics.median(trials) if trials else 0.0,
        "experiments.trial_tail_s": tail,
        "experiments.trial_tail_pct": tail_pct,
        "experiments.trial_samples": len(trials),
    }
