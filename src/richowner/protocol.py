"""Encoding and staged decoding.

Senders compress by naming a random neighbor of their string in a per-rate
graph, plus a residue fingerprint of the string itself.  The receiver runs
a catalog of staged reconstruction pipelines concurrently: each pipeline
recovers one string at a time by enumerating an oracle candidate set at a
derived bound and keeping the unique candidate that owns the observed
payload.  The first pipeline whose completed triple matches all three
fingerprints wins; ties break to the lowest branch index.

Branch scheduling is round-robin with a per-branch step quantum.  The
implementation runs branches to completion sequentially and selects the
winner by (steps, branch index), which reproduces the interleaved schedule
exactly because branches are pure and share no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Optional, Sequence

import numpy as np

from .bits import BitString
from .crt import HashScheme, HashTag, draw_hash_tag
from .graphs import GraphError, LabeledBipartiteGraph
from .oracles import (
    SUBSETS,
    ComplexityProfile,
    CorrelationSet,
    CountingOracle,
    ToyOracle,
    subset_key,
)
from .rng import SeedStream, derive_seed

SENDERS = ("A", "B", "C")


class InfeasibleRatesError(ValueError):
    """Rates violate a subset inequality beyond the allowed slack."""

    def __init__(self, violated: list[tuple[int, ...]]):
        names = ["".join(SENDERS[i] for i in V) for V in violated]
        super().__init__(f"rates violate subset constraints: {', '.join(names)}")
        self.violated = violated


@dataclass(frozen=True)
class RateVector:
    n_a: int
    n_b: int
    n_c: int

    def __post_init__(self):
        if min(self.n_a, self.n_b, self.n_c) < 0:
            raise ValueError("rates must be nonnegative")

    def __iter__(self):
        return iter((self.n_a, self.n_b, self.n_c))

    def __getitem__(self, i: int) -> int:
        return (self.n_a, self.n_b, self.n_c)[i]

    def total(self) -> int:
        return self.n_a + self.n_b + self.n_c


def _complement(V: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i in (0, 1, 2) if i not in V)


def profile_conditionals(profile: ComplexityProfile) -> dict[tuple[int, ...], int]:
    """C(x_V | x_complement) for every non-empty V, by subtraction."""
    return {V: profile.conditional(V, _complement(V)) for V in SUBSETS}


def conditional_profile(oracle, triple) -> dict[tuple[int, ...], int]:
    """C(x_V | x_complement) for every non-empty V.

    The toy machine measures each proper conditional directly, with the
    complement strings as side input; the counting oracle's conditionals
    come from one profile.
    """
    if isinstance(oracle, ToyOracle):
        full = (0, 1, 2)
        out = {V: oracle.conditional(V, _complement(V), triple)
               for V in SUBSETS if V != full}
        out[full] = oracle.profile(triple).value(full)
        return out
    return profile_conditionals(oracle.profile(triple))


def _conds_from(profile_or_conds) -> dict[tuple[int, ...], int]:
    if isinstance(profile_or_conds, Mapping):
        return {subset_key(k): v for k, v in profile_or_conds.items()}
    return profile_conditionals(profile_or_conds)


def rates_from_profile(profile_or_conds, slack: int,
                       cap: Optional[int] = None) -> RateVector:
    """Smallest chain-built rates meeting every subset constraint plus slack.

    Rates are assigned greedily in sender order: each sender takes the
    largest residual requirement among the constraints its coordinate
    completes.  An optional cap clamps each rate (senders cannot usefully
    exceed the graph width).
    """
    g = {V: max(c, 0) + slack for V, c in _conds_from(profile_or_conds).items()}
    n_a = g[(0,)]
    n_b = max(g[(1,)], g[(0, 1)] - n_a)
    n_c = max(
        g[(2,)], g[(0, 2)] - n_a, g[(1, 2)] - n_b, g[(0, 1, 2)] - n_a - n_b
    )
    rates = [max(v, 0) for v in (n_a, n_b, n_c)]
    if cap is not None:
        rates = [min(v, cap) for v in rates]
    return RateVector(*rates)


def rates_violating_total(profile_or_conds, deficit: int) -> RateVector:
    """Balanced rates whose sum undercuts the full-triple constraint."""
    total = _conds_from(profile_or_conds)[(0, 1, 2)] - deficit
    if total < 0:
        raise ValueError(f"deficit {deficit} exceeds the triple requirement")
    base, extra = divmod(total, 3)
    return RateVector(*(base + (1 if i < extra else 0) for i in range(3)))


def check_rate_feasibility(profile_or_conds, rates, slack: int) -> list[tuple[int, ...]]:
    """Subsets V whose inequality sum(rates[V]) >= C(V | complement) fails
    by more than the slack, in canonical subset order.

    `profile_or_conds` is a ComplexityProfile or a mapping of conditionals;
    `rates` any 3-sequence.  Slack 0 is the exact rate region.
    """
    conds = _conds_from(profile_or_conds)
    return [V for V in SUBSETS if sum(rates[i] for i in V) < conds[V] - slack]


# -- codewords -----------------------------------------------------------------

@dataclass(frozen=True)
class Codeword:
    sender: str
    payload: BitString
    tag: Optional[HashTag] = None

    def to_json(self) -> dict:
        return {
            "sender": self.sender,
            "payload_hex": self.payload.hex(),
            "payload_bits": self.payload.width,
            "tag": self.tag.wire() if self.tag else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Codeword":
        return cls(
            sender=obj["sender"],
            payload=BitString.from_hex(obj["payload_hex"], obj["payload_bits"]),
            tag=HashTag.from_wire(obj["tag"]) if obj.get("tag") else None,
        )


def encode(g: LabeledBipartiteGraph, x: BitString, scheme: Optional[HashScheme],
           seed: int, sender: str = "A") -> Codeword:
    """Payload = random neighbor of x; tag = residue fingerprint of x."""
    if x.width != g.n:
        raise GraphError(f"input width {x.width} != graph left width {g.n}")
    label = SeedStream(derive_seed(seed, "enc-label", sender)).randrange(g.degree)
    payload = BitString(g.m, g.neighbor_int(x.value, label))
    tag = None
    if scheme is not None:
        tag = draw_hash_tag(x.value, scheme, derive_seed(seed, "enc-tag", sender))
    return Codeword(sender=sender, payload=payload, tag=tag)


# -- decoding plans ------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    target: int                 # coordinate to recover
    known: tuple[int, ...]      # coordinates already recovered, used as side
    payload_conds: tuple[int, ...]  # coordinates whose payloads condition the set
    bound: int
    formula: str


@dataclass(frozen=True)
class Branch:
    name: str
    stages: tuple[Stage, ...]


@dataclass(frozen=True)
class DecodingPlan:
    rates: RateVector
    slack: int
    branches: tuple[Branch, ...]

    def signature(self) -> tuple:
        return tuple(
            (s.target, s.known, s.payload_conds, s.bound)
            for b in self.branches for s in b.stages
        )


def derive_decoding_bounds(profile: ComplexityProfile, rates: RateVector,
                           slack: int) -> DecodingPlan:
    """Stage bounds for the branch catalog, from the profile and rates.

    Unconditional openers enumerate up to the profile value plus slack;
    conditioned stages use their governing rate bound (the conditional
    complexity of the target given the conditioning side never exceeds the
    target's rate, up to slack, at feasible rates); the two extra
    pair-arithmetic branches bound the helper set by C(pair) - rate.
    Infeasible rates are rejected with the violated subsets.
    """
    violated = check_rate_feasibility(profile, rates, slack)
    if violated:
        raise InfeasibleRatesError(violated)

    def clamp(v: int) -> int:
        return max(v, 0)

    def opener(t: int) -> Stage:
        return Stage(t, (), (), clamp(profile.value((t,)) + slack), "C(t)+slack")

    def chained(t: int, known: tuple[int, ...],
                payloads: tuple[int, ...] = ()) -> Stage:
        return Stage(t, known, payloads, clamp(rates[t] + slack), "n_t+slack")

    branches = []
    order_names = {0: "A", 1: "B", 2: "C"}
    for perm in permutations((0, 1, 2)):
        i, j, k = perm
        branches.append(Branch(
            name="chain-" + "".join(order_names[t] for t in perm),
            stages=(opener(i), chained(j, (i,)), chained(k, tuple(sorted((i, j))))),
        ))
    branches.append(Branch("helper-B", (
        chained(1, (), (0,)), chained(0, (1,)), chained(2, (0, 1)),
    )))
    branches.append(Branch("helper-C", (
        chained(2, (), (0,)), chained(0, (2,)), chained(1, (0, 2)),
    )))
    branches.append(Branch("joint-BC", (
        chained(1, (), (0, 2)), chained(2, (1,), (0,)), chained(0, (1, 2)),
    )))
    branches.append(Branch("joint-CB", (
        chained(2, (), (0, 1)), chained(1, (2,), (0,)), chained(0, (1, 2)),
    )))
    # Pair-arithmetic helpers: bound C(x_t | p_A) by C(A,t) - n_A + slack.
    for t, name in ((1, "pair-arith-B"), (2, "pair-arith-C")):
        bound = clamp(profile.value(tuple(sorted((0, t)))) - rates[0] + slack)
        branches.append(Branch(name, (
            Stage(t, (), (0,), bound, "C(A,t)-n_A+slack"),
            chained(0, (t,)),
            chained(3 - t, tuple(sorted((0, t)))),
        )))
    return DecodingPlan(rates=rates, slack=slack, branches=tuple(branches))


# -- decode results ------------------------------------------------------------

@dataclass
class DecodeResult:
    status: str  # 'ok' | 'fail'
    triple: Optional[tuple[BitString, BitString, BitString]] = None
    branch: Optional[str] = None
    steps: int = 0
    survivors: Optional[int] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "triple_hex": [x.hex() for x in self.triple] if self.triple else None,
            "branch": self.branch,
            "steps": self.steps,
        }
        if self.survivors is not None:
            out["survivors"] = self.survivors
        if self.reason:
            out["reason"] = self.reason
        return out


# -- staged decoding -----------------------------------------------------------

class _StageCache:
    """Memoizes stage and branch runs for one fixed codeword triple.

    Results are pure functions of the stage signatures and the codewords,
    so caching never changes outcomes, and logical step counts are charged
    identically on hits.
    """

    def __init__(self):
        self.data: dict = {}
        self.branches: dict = {}


def _recover(stage: Stage, recovered: dict[int, BitString],
             codewords: Sequence[Codeword], oracle, graphs, n: int,
             cache: _StageCache) -> tuple[Optional[BitString], int]:
    """One stage: enumerate the candidate set, keep the unique payload owner.

    Returns (recovered string or None, enumeration steps charged).
    """
    known_vals = tuple((c, recovered[c]) for c in stage.known)
    key = (stage.target, known_vals, stage.payload_conds, stage.bound)
    hit = cache.data.get(key)
    if hit is not None:
        return hit
    if isinstance(oracle, CountingOracle):
        candidates = oracle.candidates(
            stage.target,
            {c: v for c, v in known_vals},
            [(c, codewords[c].payload, graphs[c]) for c in stage.payload_conds],
            stage.bound,
        )
    else:
        candidates = oracle.candidates(
            n,
            [v for _, v in known_vals],
            [codewords[c].payload for c in stage.payload_conds],
            stage.bound,
        )
    g = graphs[stage.target]
    payload = codewords[stage.target].payload
    matches = [x for x in candidates if g.payload_consistent(x, payload)]
    steps = len(candidates)
    result = (matches[0] if len(matches) == 1 else None, steps)
    cache.data[key] = result
    return result


def _run_branch(branch: Branch, codewords, oracle, graphs, n: int,
                cache: _StageCache) -> tuple[Optional[tuple], int]:
    key = tuple((s.target, s.known, s.payload_conds, s.bound) for s in branch.stages)
    hit = cache.branches.get(key)
    if hit is not None:
        return hit
    recovered: dict[int, BitString] = {}
    steps = 0
    result = None
    for stage in branch.stages:
        x, cost = _recover(stage, recovered, codewords, oracle, graphs, n, cache)
        steps += cost
        if x is None:
            break
        recovered[stage.target] = x
    else:
        result = (recovered[0], recovered[1], recovered[2])
    cache.branches[key] = (result, steps)
    return result, steps


def _tags_match(codewords: Sequence[Codeword], triple) -> bool:
    return all(
        cw.tag is not None and cw.tag.matches(x) for cw, x in zip(codewords, triple)
    )


def decode_known_profile(
    codewords: Sequence[Codeword],
    profile: ComplexityProfile,
    rates: RateVector,
    oracle,
    graphs: Sequence[LabeledBipartiteGraph],
    plan: Optional[DecodingPlan] = None,
    branches: Optional[Sequence[str]] = None,
    step_budget: Optional[int] = None,
    slack: int = 2,
    _cache: Optional[_StageCache] = None,
) -> DecodeResult:
    """Run the branch catalog; first tag-matching triple wins.

    Winner selection is by (completion steps, branch index), the completion
    order of a fair round-robin interleaving; a returned triple always
    satisfies all three fingerprints.  `branches` optionally restricts the
    catalog by name (e.g. to demonstrate that one pipeline suffices).
    """
    if any(cw.tag is None for cw in codewords):
        raise ValueError("staged decoding requires fingerprint tags")
    if plan is None:
        plan = derive_decoding_bounds(profile, rates, slack=slack)
    cache = _cache or _StageCache()
    n = graphs[0].n
    lanes = [
        (idx, b) for idx, b in enumerate(plan.branches)
        if branches is None or b.name in branches
    ]
    per_branch_cap = None
    if step_budget is not None and lanes:
        per_branch_cap = step_budget // len(lanes) + 1
    best = None  # (steps, idx, name, triple)
    max_steps = 0
    for idx, branch in lanes:
        triple, steps = _run_branch(branch, codewords, oracle, graphs, n, cache)
        max_steps = max(max_steps, steps)
        if per_branch_cap is not None and steps > per_branch_cap:
            continue
        if triple is not None and _tags_match(codewords, triple):
            if best is None or (steps, idx) < (best[0], best[1]):
                best = (steps, idx, branch.name, triple)
    if best is None:
        return DecodeResult(status="fail", steps=max_steps,
                            reason="no branch produced a tag-consistent triple")
    return DecodeResult(status="ok", triple=best[3], branch=best[2], steps=best[0])


# -- profile search (decoder without the profile) --------------------------------

_PLAN_CACHE: dict = {}


def _candidate_plans(rates: RateVector, slack: int, cap: int) -> list[tuple[tuple, DecodingPlan]]:
    """Deduplicated plans over all admissible candidate profiles.

    Profiles run over {0..cap}^7 filtered by monotonicity and subadditivity
    (with slack); many profiles induce the same plan, and decoding is a pure
    function of the plan, so each distinct plan runs once, represented by
    its lexicographically least profile.

    A profile reaches the plan only through the three opener bounds and the
    two pair-arithmetic bounds, plus the feasibility gate, so deduplication
    happens on that 5-tuple before any plan object is built.
    """
    key = (tuple(rates), slack, cap)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    n_a, n_b, n_c = rates
    reps: dict[tuple, tuple] = {}
    rng = range(cap + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for ab in range(max(a, b), min(a + b + slack, cap) + 1):
                    arith_b = max(ab - n_a + slack, 0)
                    for ac in range(max(a, c), min(a + c + slack, cap) + 1):
                        arith_c = max(ac - n_a + slack, 0)
                        sig_head = (a + slack, b + slack, c + slack, arith_b, arith_c)
                        if sig_head in reps:
                            continue
                        for bc in range(max(b, c), min(b + c + slack, cap) + 1):
                            lo = max(ab, ac, bc)
                            hi = min(min(ab + c, ac + b, bc + a) + slack, cap)
                            for abc in range(lo, hi + 1):
                                # feasibility: sum(rates[V]) >= C(V|comp) - slack
                                if (n_a < abc - bc - slack or
                                        n_b < abc - ac - slack or
                                        n_c < abc - ab - slack or
                                        n_a + n_b < abc - c - slack or
                                        n_a + n_c < abc - b - slack or
                                        n_b + n_c < abc - a - slack or
                                        n_a + n_b + n_c < abc - slack):
                                    continue
                                reps[sig_head] = (a, b, c, ab, ac, bc, abc)
                                break
                            if sig_head in reps:
                                break
    plans = []
    for values in sorted(reps.values()):
        plan = derive_decoding_bounds(ComplexityProfile(values), rates, slack)
        plans.append((values, plan))
    ordered = sorted(plans, key=lambda item: item[0])
    _PLAN_CACHE[key] = ordered
    return ordered


def decode_full(
    codewords: Sequence[Codeword],
    rates: RateVector,
    oracle,
    graphs: Sequence[LabeledBipartiteGraph],
    n: int,
    slack: int = 2,
    step_budget: int = 10_000_000,
) -> DecodeResult:
    """Profile search: one known-profile subroutine per candidate profile.

    Candidate profiles with entries in {0..n+slack} pass monotonicity and
    subadditivity filters; subroutines run under a global round-robin step
    budget and the first tag-matching triple wins, ties resolved toward the
    lexicographically lowest profile.
    """
    plans = _candidate_plans(rates, slack, n + slack)
    if not plans:
        return DecodeResult(status="fail", reason="no admissible candidate profile")
    cache = _StageCache()
    per_lane_cap = step_budget // len(plans) + 1
    best = None  # (steps, rank, result)
    max_steps = 0
    for rank, (_values, plan) in enumerate(plans):
        result = decode_known_profile(
            codewords, None, rates, oracle, graphs, plan=plan, _cache=cache
        )
        max_steps = max(max_steps, result.steps)
        if result.steps > per_lane_cap:
            continue
        if result.ok:
            if best is None or (result.steps, rank) < (best[0], best[1]):
                best = (result.steps, rank, result)
    if best is None:
        return DecodeResult(status="fail", steps=max_steps,
                            reason="profile search exhausted without a tag match")
    return best[2]


# -- membership decoding ---------------------------------------------------------

def decode_membership(codewords: Sequence[Codeword], S: CorrelationSet,
                      graphs: Sequence[LabeledBipartiteGraph]) -> DecodeResult:
    """Keep the members of S consistent with every payload; succeed iff one
    survivor remains.

    Survivor counting is exact; tags, when present, are applied as an extra
    filter before counting.
    """
    mask = np.ones(len(S.members), dtype=bool)
    for coord in range(3):
        payload = codewords[coord].payload
        g = graphs[coord]
        try:
            mask &= g.payload_consistent_bulk(S.members[:, coord], payload)
        except GraphError:
            col = S.members[:, coord]
            mask &= np.fromiter(
                (g.payload_consistent(int(v), payload) for v in col),
                dtype=bool, count=len(col),
            )
        if not mask.any():
            break
    if mask.any():
        for coord in range(3):
            tag = codewords[coord].tag
            if tag is not None:
                mask &= (S.members[:, coord] % tag.prime) == tag.residue
    survivors = int(mask.sum())
    if survivors == 1:
        row = S.members[mask][0]
        triple = tuple(BitString(S.n, int(v)) for v in row)
        return DecodeResult(status="ok", triple=triple, survivors=1,
                            branch="membership")
    return DecodeResult(status="fail", survivors=survivors,
                        reason=f"{survivors} survivors")
