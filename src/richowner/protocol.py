"""Encoding and staged decoding.

Senders compress by naming a random neighbor of their string in a per-rate
graph, plus a residue fingerprint of the string itself.  The receiver runs
a catalog of staged reconstruction pipelines (branches), held as plain
data: each stage of a branch is a (target, known, payload_conds) triple
that recovers one string.  A stage asks the oracle for its candidate
values at a bound that _stage_bounds derives from a plan and the rates,
checks them all against the observed payload with one bulk graph query,
and keeps the unique candidate that owns it.  A plan is what a complexity
profile sets in the catalog: the opener bounds C(t) + slack of the chains'
first stages, t = A, B, C; every other stage is bounded by its target's
rate plus slack.

Both staged decoders are profile search over plans, in rank order: the
known-profile decoder over the one plan its profile gives, the full
decoder over every admissible profile.  One selection rule serves
both: per plan the tag-matching branch with the fewest steps wins, ties to
the lowest branch index; across plans the fewest steps win, ties to the
lowest rank, and plan winners over the cap step_budget // plans + 1 are
dropped.  Branches are pure, and a branch depends on its plan only through
its lead bound, so each branch runs once per distinct lead bound, to
completion, with stage results shared through a memo; the cap filters
results but does not bound this work.  A lead's branches reduce to a best
and a worst cost per bound, which every plan reads with one gather per
lead, so selection holds no plans x branches matrix.
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
from .oracles import SENDERS, SUBSET_NAMES, SUBSETS, ComplexityProfile, CorrelationSet, _distinct
from .rng import SeedStream, derive_seed
from .specs import ConfigError


class InfeasibleRatesError(ValueError):
    """Rates violate a subset inequality beyond the allowed slack."""

    def __init__(self, violated: list[tuple[int, ...]]):
        names = [SUBSET_NAMES[SUBSETS.index(V)] for V in violated]
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


def conditional_profile(oracle, triple,
                        profile: Optional[ComplexityProfile] = None) -> dict[tuple[int, ...], int]:
    """C(x_V | x_complement) for every non-empty V, as the oracle measures them."""
    return oracle.conditionals(triple, profile)


def rates_from_profile(conds: Mapping[tuple[int, ...], int], slack: int,
                       cap: Optional[int] = None) -> RateVector:
    """Smallest chain-built rates meeting every subset constraint plus slack.

    `conds` maps each subset V to C(x_V | x_complement).  Rates are
    assigned greedily in sender order: each sender takes the largest
    residual requirement among the constraints its coordinate completes.
    An optional cap clamps each rate (senders cannot usefully exceed the
    graph width).
    """
    g = {V: max(c, 0) + slack for V, c in conds.items()}
    n_a = g[(0,)]
    n_b = max(g[(1,)], g[(0, 1)] - n_a)
    n_c = max(
        g[(2,)], g[(0, 2)] - n_a, g[(1, 2)] - n_b, g[(0, 1, 2)] - n_a - n_b
    )
    rates = [max(v, 0) for v in (n_a, n_b, n_c)]
    if cap is not None:
        rates = [min(v, cap) for v in rates]
    return RateVector(*rates)


def rates_violating_total(conds: Mapping[tuple[int, ...], int], deficit: int) -> RateVector:
    """Balanced rates whose sum undercuts the full-triple constraint by a
    deficit of at least 0 (experiments.read_rates refuses a negative one)."""
    total = conds[(0, 1, 2)] - deficit
    if total < 0:
        raise ValueError(f"deficit {deficit} exceeds the triple requirement")
    base, extra = divmod(total, 3)
    return RateVector(*(base + (1 if i < extra else 0) for i in range(3)))


def check_rate_feasibility(profile: ComplexityProfile, rates,
                           slack: int) -> list[tuple[int, ...]]:
    """Subsets V whose inequality sum(rates[V]) >= C(V | complement) fails
    by more than the slack, in canonical subset order.

    `rates` is any 3-sequence.  Slack 0 is the exact rate region.
    """
    conds = profile.conditionals()
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

# The branch catalog, as (name, lead, stages) with each stage given as
# (target, known, payload_conds): the coordinate to recover, the recovered
# side strings and the conditioning payloads.  `lead` is the plan signature
# column, C(lead) + slack, that bounds a chain's first stage, or None when
# rates bound every stage.  Branches that open on A's payload alone add no
# tag-consistent triple that these miss (tests/helpers.py keeps them).
_CATALOG = (
    *(("chain-" + SENDERS[i] + SENDERS[j] + SENDERS[k], i,
       ((i, (), ()), (j, (i,), ()), (k, tuple(sorted((i, j))), ())))
      for i, j, k in permutations((0, 1, 2))),
    ("joint-BC", None, ((1, (), (0, 2)), (2, (1,), (0,)), (0, (1, 2), ()))),
    ("joint-CB", None, ((2, (), (0, 1)), (1, (2,), (0,)), (0, (1, 2), ()))),
)


def _stage_bounds(idx: int, lead_bound: Optional[int], rates: RateVector,
                  slack: int) -> tuple[int, ...]:
    """Catalog branch idx's stage bounds at a plan's lead bound: a lead's
    first stage takes the lead bound, every other stage its target's rate
    plus slack; bounds clamp at 0."""
    _, lead, stages = _CATALOG[idx]
    bounds = [rates[t] + slack for t, _, _ in stages]
    if lead is not None:
        bounds[0] = lead_bound
    return tuple(max(int(bound), 0) for bound in bounds)


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

def _recover(target: int, known: tuple, payload_conds: tuple, bound: int,
             recovered: dict[int, BitString], codewords: Sequence[Codeword], oracle,
             graphs, memo: dict) -> tuple[Optional[BitString], int]:
    """One stage: list the oracle's candidate values, filter them with one
    bulk payload check, and keep the unique payload owner.

    Returns (recovered string or None, enumeration steps charged: the
    number of candidates).  `memo` holds stage results for one codeword
    triple; they are pure functions of the stage and the strings it
    conditions on, so a hit is charged the same steps as a fresh run.
    """
    side = {c: recovered[c] for c in known}
    key = (target, tuple(side.items()), payload_conds, bound)
    hit = memo.get(key)
    if hit is not None:
        return hit
    g = graphs[target]
    conds = [(c, codewords[c].payload, graphs[c]) for c in payload_conds]
    values = oracle.candidates(g.n, target, side, conds, bound)
    owners = np.flatnonzero(
        g.payload_consistent_bulk(values, codewords[target].payload))
    x = BitString(g.n, int(values[owners[0]])) if len(owners) == 1 else None
    memo[key] = (x, len(values))
    return memo[key]


def _run_branch(idx: int, lead_bound: Optional[int], rates: RateVector, slack: int,
                codewords, oracle, graphs, memo: dict) -> tuple[Optional[tuple], int]:
    """Catalog branch idx at a plan's lead bound: (triple or None, steps)."""
    recovered: dict[int, BitString] = {}
    steps = 0
    for stage, bound in zip(_CATALOG[idx][2], _stage_bounds(idx, lead_bound, rates, slack)):
        x, cost = _recover(*stage, bound, recovered, codewords, oracle, graphs, memo)
        steps += cost
        if x is None:
            return None, steps
        recovered[stage[0]] = x
    return (recovered[0], recovered[1], recovered[2]), steps


def _tags_match(codewords: Sequence[Codeword], triple) -> bool:
    return all(
        cw.tag is not None and cw.tag.matches(x) for cw, x in zip(codewords, triple)
    )


# Catalog indices per lead, None for the rate-only branches.
_LEAD_BRANCHES = {lead: [idx for idx, entry in enumerate(_CATALOG) if entry[1] == lead]
                  for lead in {entry[1] for entry in _CATALOG}}


def _pick(signatures: np.ndarray, outcome, step_budget: int) -> tuple[Optional[int], int, int]:
    """The selection rule of the module docstring over the plans of
    `signatures`: one row per plan, in rank order, holding its opener
    bounds C(t) + slack for t = A, B, C.

    `outcome(idx, bound)` is (matched, steps) of catalog branch idx run at
    lead bound `bound` (None for a rate-only branch); it is called once per
    branch and distinct bound.  Each lead's branches reduce, per bound, to
    a best key steps * len(_CATALOG) + idx over the matched branches and a
    worst step count over all of them, and each plan reads its leads' with
    one gather per signature column.  Returns (rank, idx, steps) of the
    winner, or (None, -1, steps) with steps the largest per-plan count.
    """
    never = np.iinfo(np.int64).max
    width = len(_CATALOG)

    def reduce_lead(lead, bound):
        best, worst = never, 0
        for idx in _LEAD_BRANCHES[lead]:
            matched, steps = outcome(idx, bound)
            worst = max(worst, steps)
            if matched:
                best = min(best, steps * width + idx)
        return best, worst

    best, worst = reduce_lead(None, None)
    plans = len(signatures)
    key = np.full(plans, best, dtype=np.int64)
    most = np.full(plans, worst, dtype=np.int64)
    for lead, column in enumerate(signatures.T):
        bounds = _distinct(column)
        lead_key, lead_most = np.array(
            [reduce_lead(lead, bound) for bound in bounds.tolist()], dtype=np.int64).T
        at = np.searchsorted(bounds, column)
        np.minimum(key, lead_key[at], out=key)
        np.maximum(most, lead_most[at], out=most)
    ok = key != never
    plan_steps = np.where(ok, key // width, most)
    eligible = ok & (plan_steps <= step_budget // plans + 1)
    if not eligible.any():
        return None, -1, int(plan_steps.max())
    rank = int(np.where(eligible, plan_steps, never).argmin())
    return rank, int(key[rank] % width), int(plan_steps[rank])


def _select(codewords: Sequence[Codeword], signatures: np.ndarray, rates: RateVector,
            oracle, graphs: Sequence[LabeledBipartiteGraph], slack: int,
            step_budget: int) -> DecodeResult:
    """Decode under each plan, a row of opener bounds in `signatures`, and
    pick the winner by the rule in the module docstring (_pick).  On
    failure, steps is the largest per-plan step count, where a plan without
    a match counts its largest branch."""
    if any(cw.tag is None for cw in codewords):
        raise ValueError("staged decoding requires fingerprint tags")
    memo: dict = {}

    def run(idx: int, bound: Optional[int]) -> tuple[Optional[tuple], int]:
        return _run_branch(idx, bound, rates, slack, codewords, oracle, graphs, memo)

    def outcome(idx: int, bound: Optional[int]) -> tuple[bool, int]:
        triple, steps = run(idx, bound)
        return triple is not None and _tags_match(codewords, triple), steps

    rank, idx, steps = _pick(signatures, outcome, step_budget)
    if rank is None:
        return DecodeResult(status="fail", steps=steps,
                            reason="no tag-consistent triple within the step cap")
    lead = _CATALOG[idx][1]
    triple, _ = run(idx, None if lead is None else int(signatures[rank, lead]))
    return DecodeResult(status="ok", triple=triple, branch=_CATALOG[idx][0], steps=steps)


def decode_known_profile(
    codewords: Sequence[Codeword],
    profile: ComplexityProfile,
    rates: RateVector,
    oracle,
    graphs: Sequence[LabeledBipartiteGraph],
    step_budget: int = 10_000_000,
    slack: int = 2,
) -> DecodeResult:
    """Decode with the profile known: profile search over the one plan that
    the profile and rates give (_select), so the cap is step_budget + 1.

    Infeasible rates are rejected with the violated subsets.
    """
    violated = check_rate_feasibility(profile, rates, slack)
    if violated:
        raise InfeasibleRatesError(violated)
    signatures = np.array([profile.values[:3]]) + slack
    return _select(codewords, signatures, rates, oracle, graphs, slack, step_budget)


# -- profile search (decoder without the profile) --------------------------------

def _representative_profiles(rates: RateVector, slack: int, cap: int) -> np.ndarray:
    """The opener triples (A, B, C) of the admissible profiles, as (P, 3)
    int64 rows in lexicographic order, which is the rank order of their
    plans.

    Admissible profiles have entries in {0..cap}, are monotone and
    subadditive up to slack, and meet the rate region up to slack.  With
    C(ABC) = T fixed, every inequality either bounds T alone or holds one
    pair entry to an interval that depends on T alone, e.g. AB in
    [max(A, B, T - min(C, n_C) - s), min(A + B + s, cap, T)].  So (A, B, C)
    is admissible iff some T >= max(A, B, C) meets the bounds on T and
    leaves every interval non-empty: the two tests below, over the
    (cap + 1)^3 grid.

    Past 2^18 triples the search is refused, naming the slack, before any
    array is built: the arrays grow with the cube of the grid side, and
    added 11 MB of peak RSS at 64^3 triples and 80 MB at 128^3.  A cap
    below 0 admits no profile; below -65 it is refused as such, which keeps
    a slack far below 0 out of int64 arithmetic.  Each rate is clamped to
    cap + |slack| first: a rate that large meets every bound it appears in,
    so the clamp is exact and every value fits in int64.
    """
    s = slack
    if cap < -65:
        raise ConfigError(f"slack {slack}: no profile is admissible, as its entries "
                          f"would lie in 0..{cap}")
    if cap > 63:
        raise ConfigError(f"slack {slack}: profile search over entries 0..{cap} spans "
                          f"{cap + 1}^3 opener triples, past 2^18 = 64^3 plans")
    n_a, n_b, n_c = (min(rate, cap + abs(s)) for rate in rates)
    a, b, c = np.ix_(*[np.arange(cap + 1, dtype=np.int64)] * 3)
    ma, mb, mc = np.minimum(a, n_a), np.minimum(b, n_b), np.minimum(c, n_c)
    # upper bounds on T: subadditivity through each pair's interval, the cap
    # and the rate-region inequalities for AB, AC, BC and ABC
    upper = reduce(np.minimum, (a + b + mc + 2 * s, a + c + mb + 2 * s, b + c + ma + 2 * s,
                                n_a + n_b + c + s, n_a + n_c + b + s, n_b + n_c + a + s,
                                cap, n_a + n_b + n_c + s))
    admissible = ((reduce(np.minimum, (ma, mb, mc)) + s >= 0)
                  & (reduce(np.maximum, (a, b, c)) <= upper))
    return np.argwhere(admissible)


def decode_full(
    codewords: Sequence[Codeword],
    rates: RateVector,
    oracle,
    graphs: Sequence[LabeledBipartiteGraph],
    slack: int = 2,
    step_budget: int = 10_000_000,
) -> DecodeResult:
    """Profile search: decode without the profile, under every admissible
    candidate profile with entries in {0..n+slack}, n the graphs' width.

    A plan is a profile's opener bounds C(t) + slack, so the plans are the
    admissible opener triples (A, B, C) (_representative_profiles), ranked
    lexicographically; _select picks the winner.  The plans are built on
    each call, uncached.
    """
    signatures = _representative_profiles(rates, slack, graphs[0].n + slack) + slack
    if not len(signatures):
        return DecodeResult(status="fail", reason="no admissible candidate profile")
    return _select(codewords, signatures, rates, oracle, graphs, slack, step_budget)


# -- membership decoding ---------------------------------------------------------

def decode_membership(codewords: Sequence[Codeword], S: CorrelationSet,
                      graphs: Sequence[LabeledBipartiteGraph]) -> DecodeResult:
    """Keep the members of S consistent with every payload; succeed iff one
    survivor remains.

    Survivor counting is exact; tags, when present, are applied as an extra
    filter before counting.  Payloads are checked once per distinct value
    of each coordinate (CorrelationSet.row_mask).
    """
    mask = S.row_mask({}, [(coord, codewords[coord].payload, graphs[coord])
                           for coord in range(3)])
    if mask.any():
        for coord in range(3):
            tag = codewords[coord].tag
            if tag is not None:
                mask &= tag.matches(S.members[:, coord])
    survivors = int(mask.sum())
    if survivors == 1:
        row = S.members[mask][0]
        triple = tuple(BitString(S.n, int(v)) for v in row)
        return DecodeResult(status="ok", triple=triple, survivors=1,
                            branch="membership")
    return DecodeResult(status="fail", survivors=survivors,
                        reason=f"{survivors} survivors")
