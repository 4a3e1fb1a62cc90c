"""Encoding and staged decoding.

Senders compress by naming a random neighbor of their string in a per-rate
graph, plus a residue fingerprint of the string itself.  The receiver holds
a catalog of staged reconstruction pipelines (branches): each recovers one
string at a time by enumerating an oracle candidate set at a derived bound
and keeping the unique candidate that owns the observed payload.  Of the
branches whose triple matches all three fingerprints, the one with the
fewest enumeration steps wins; ties break to the lowest branch index.

Branches are pure, so each distinct branch runs once, to completion, with
stage results shared through a memo.  A step budget does not bound this
work: winners over the per-lane cap are dropped afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
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


def conditional_profile(oracle, triple,
                        profile: Optional[ComplexityProfile] = None) -> dict[tuple[int, ...], int]:
    """C(x_V | x_complement) for every non-empty V.

    The toy machine measures each proper conditional directly, with the
    complement strings as side input; the counting oracle's conditionals
    come from one profile.  `profile`, when given, is oracle.profile(triple),
    already computed by the caller.
    """
    if profile is None:
        profile = oracle.profile(triple)
    if isinstance(oracle, ToyOracle):
        full = (0, 1, 2)
        out = {V: oracle.conditional(V, _complement(V), triple)
               for V in SUBSETS if V != full}
        out[full] = profile.value(full)
        return out
    return profile_conditionals(profile)


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


# The branch catalog, as (name, lead, stages) with each stage given as
# (target, known, payload_conds).  Only a branch's first stage can take its
# bound from the profile: `lead` indexes the plan signature (_signature) for
# that bound, or is None when the first stage is bounded by its target's
# rate plus slack, like every later stage.
_CATALOG = (
    *(("chain-" + "ABC"[i] + "ABC"[j] + "ABC"[k], i,
       ((i, (), ()), (j, (i,), ()), (k, tuple(sorted((i, j))), ())))
      for i, j, k in permutations((0, 1, 2))),
    ("helper-B", None, ((1, (), (0,)), (0, (1,), ()), (2, (0, 1), ()))),
    ("helper-C", None, ((2, (), (0,)), (0, (2,), ()), (1, (0, 2), ()))),
    ("joint-BC", None, ((1, (), (0, 2)), (2, (1,), (0,)), (0, (1, 2), ()))),
    ("joint-CB", None, ((2, (), (0, 1)), (1, (2,), (0,)), (0, (1, 2), ()))),
    # Pair-arithmetic helpers: bound C(x_t | p_A) by C(A,t) - n_A + slack.
    ("pair-arith-B", 3, ((1, (), (0,)), (0, (1,), ()), (2, (0, 1), ()))),
    ("pair-arith-C", 4, ((2, (), (0,)), (0, (2,), ()), (1, (0, 2), ()))),
)
_LEAD_FORMULAS = ("C(t)+slack",) * 3 + ("C(A,t)-n_A+slack",) * 2


def _signature(a, b, c, ab, ac, n_a: int, slack: int) -> tuple:
    """What a plan takes from its profile: the opener bounds C(t) + slack
    for t = A, B, C and the pair-arithmetic bounds max(C(A,t) - n_A + slack, 0)
    for t = B, C.  Elementwise on integers or numpy arrays."""
    return (a + slack, b + slack, c + slack,
            np.maximum(ab - n_a + slack, 0), np.maximum(ac - n_a + slack, 0))


def _branch(entry, signature, rates: RateVector, slack: int) -> Branch:
    """A catalog entry at the bounds of a plan with the given signature;
    bounds clamp at 0."""
    name, lead, stages = entry
    built = []
    for t, known, conds in stages:
        if lead is not None and not built:
            bound, formula = signature[lead], _LEAD_FORMULAS[lead]
        else:
            bound, formula = rates[t] + slack, "n_t+slack"
        built.append(Stage(t, known, conds, max(int(bound), 0), formula))
    return Branch(name, tuple(built))


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
    signature = _signature(*profile.values[:5], rates[0], slack)
    return DecodingPlan(rates=rates, slack=slack, branches=tuple(
        _branch(entry, signature, rates, slack) for entry in _CATALOG
    ))


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

def _recover(stage: Stage, recovered: dict[int, BitString],
             codewords: Sequence[Codeword], oracle, graphs, n: int,
             memo: dict) -> tuple[Optional[BitString], int]:
    """One stage: enumerate the candidate set, keep the unique payload owner.

    Returns (recovered string or None, enumeration steps charged).  `memo`
    holds stage results for one codeword triple; they are pure functions of
    the stage and the strings it conditions on, so a hit is charged the
    same steps as a fresh run.
    """
    known_vals = tuple((c, recovered[c]) for c in stage.known)
    key = (stage.target, known_vals, stage.payload_conds, stage.bound)
    hit = memo.get(key)
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
    memo[key] = result
    return result


def _run_branch(branch: Branch, codewords, oracle, graphs, n: int,
                memo: dict) -> tuple[Optional[tuple], int]:
    recovered: dict[int, BitString] = {}
    steps = 0
    for stage in branch.stages:
        x, cost = _recover(stage, recovered, codewords, oracle, graphs, n, memo)
        steps += cost
        if x is None:
            return None, steps
        recovered[stage.target] = x
    return (recovered[0], recovered[1], recovered[2]), steps


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
    branches: Optional[Sequence[str]] = None,
    step_budget: Optional[int] = None,
    slack: int = 2,
) -> DecodeResult:
    """Run the branch catalog at the profile's bounds; among branches whose
    triple matches all three fingerprints, the fewest steps win, ties to
    the lowest branch index.

    Every branch runs to completion.  With a step budget, a branch whose
    steps exceed the per-branch cap step_budget // branches + 1 is dropped
    afterwards, so the budget filters results but does not bound work.
    `branches` optionally restricts the catalog by name (e.g. to
    demonstrate that one pipeline suffices).
    """
    if any(cw.tag is None for cw in codewords):
        raise ValueError("staged decoding requires fingerprint tags")
    plan = derive_decoding_bounds(profile, rates, slack=slack)
    memo: dict = {}
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
        triple, steps = _run_branch(branch, codewords, oracle, graphs, n, memo)
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

def _representative_profiles(rates: RateVector, slack: int, cap: int) -> np.ndarray:
    """One least admissible profile per plan signature, in rank order.

    Admissible profiles have entries in {0..cap}, are monotone and
    subadditive up to slack, and meet the rate region up to slack.  Rows
    (A, B, C, AB, AC, BC, ABC) come sorted lexicographically, which is the
    rank order of their plans.

    Every inequality on C(ABC) is an upper bound, so C(ABC) may take its
    least value max(AB, AC, BC); the two bounds involving BC then bound BC
    from below, which leaves a filter over the grid of (A, B, C, AB, AC).
    """
    n_a, n_b, n_c = rates
    s = slack
    a, b, c, ab, ac = np.ogrid[0:cap + 1, 0:cap + 1, 0:cap + 1, 0:cap + 1, 0:cap + 1]
    top = np.maximum(ab, ac)
    # bounds on C(ABC) without bc: subadditivity over AB+C and AC+B, the
    # cap, and the rate-region inequalities for B, C, AB, AC, BC and ABC
    upper = reduce(np.minimum, (ab + c + s, ac + b + s, cap, n_b + ac + s,
                                n_c + ab + s, n_a + n_b + c + s, n_a + n_c + b + s,
                                n_b + n_c + a + s, n_a + n_b + n_c + s))
    # C(ABC) <= bc + a + s (subadditivity) and C(ABC) <= bc + n_a + s (rate of A)
    gap = np.minimum(a, n_a) + s
    least_bc = np.maximum(np.maximum(b, c), top - gap)
    admissible = (
        (np.maximum(a, b) <= ab) & (ab <= a + b + s)
        & (np.maximum(a, c) <= ac) & (ac <= a + c + s)
        & (top <= upper) & (gap >= 0)
        & (least_bc <= np.minimum(b + c + s, upper))
    )
    points = np.nonzero(admissible)  # lexicographic order
    bc = np.broadcast_to(least_bc, admissible.shape)[points]
    a, b, c, ab, ac = points
    profiles = np.stack([a, b, c, ab, ac, bc, np.maximum(np.maximum(ab, ac), bc)], axis=1)
    signatures = np.stack(_signature(a, b, c, ab, ac, n_a, s), axis=1)
    _, first = np.unique(signatures, axis=0, return_index=True)
    return profiles[np.sort(first)]


def decode_full(
    codewords: Sequence[Codeword],
    rates: RateVector,
    oracle,
    graphs: Sequence[LabeledBipartiteGraph],
    n: int,
    slack: int = 2,
    step_budget: int = 10_000_000,
) -> DecodeResult:
    """Profile search: decode without the profile, under every admissible
    candidate profile with entries in {0..n+slack}.

    Profiles that yield the same plan are grouped by signature and ranked
    by the least one (_representative_profiles); each distinct branch of
    all plans runs once, to completion.  Per plan the winner is the
    tag-matching branch with the fewest steps, ties to the lowest branch
    index.  Plan winners above the per-plan cap step_budget // plans + 1 are
    dropped afterwards; of the rest the fewest steps win, ties to the lowest
    rank.  On failure, steps is the largest per-plan step count, where a
    plan without a match counts its largest branch.
    """
    profiles = _representative_profiles(rates, slack, n + slack)
    plans = len(profiles)
    if not plans:
        return DecodeResult(status="fail", reason="no admissible candidate profile")
    if any(cw.tag is None for cw in codewords):
        raise ValueError("staged decoding requires fingerprint tags")
    signatures = np.stack(_signature(*profiles.T[:5], rates[0], slack), axis=1)
    memo: dict = {}

    def run(idx: int, plan: int) -> tuple[Optional[tuple], int]:
        branch = _branch(_CATALOG[idx], signatures[plan], rates, slack)
        return _run_branch(branch, codewords, oracle, graphs, graphs[0].n, memo)

    steps = np.empty((plans, len(_CATALOG)), dtype=np.int64)
    matched = np.empty(steps.shape, dtype=bool)
    for idx, (_, lead, _) in enumerate(_CATALOG):
        # plans share this branch iff they share its lead bound
        key = signatures[:, lead] if lead is not None else np.zeros(plans)
        _, first, version = np.unique(key, return_index=True, return_inverse=True)
        runs = [run(idx, plan) for plan in first]
        steps[:, idx] = np.array([cost for _, cost in runs])[version]
        matched[:, idx] = np.array(
            [t is not None and _tags_match(codewords, t) for t, _ in runs])[version]
    never = np.iinfo(np.int64).max
    masked = np.where(matched, steps, never)
    ok = matched.any(axis=1)
    plan_steps = np.where(ok, masked.min(axis=1), steps.max(axis=1))
    eligible = ok & (plan_steps <= step_budget // plans + 1)
    if not eligible.any():
        return DecodeResult(status="fail", steps=int(plan_steps.max()),
                            reason="profile search exhausted without a tag match")
    rank = int(np.where(eligible, plan_steps, never).argmin())
    idx = int(masked[rank].argmin())
    triple, _ = run(idx, rank)  # a memo hit
    return DecodeResult(status="ok", triple=triple, branch=_CATALOG[idx][0],
                        steps=int(plan_steps[rank]))


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
