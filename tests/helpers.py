"""Helpers shared by the tests.

Small fixed graphs, a bit-string literal, a left node's right nodes by
label and the B-degree of a right node,
a scalar GF(2^q) reference (field elements, the collinearity
determinant, a collinear-triple sampler) and the per-pair loop that
enumerated collinear triples, which the vectorised geometry in
`richowner.scenarios` is checked against, and the brute-force toy machine
(one program at a time, every bit string in turn) that the depth-first
output tables of `richowner.oracles` are checked against, and the two
references of the extractor audit in `richowner.verification`: sampled
sets drawn one `SeedStream.randrange` at a time, and the member-array x
set-incidence product that scored exhaustive families before the
subset-sum kernel, and one node's rich-owner classification within a set,
read from the set-level kernel `_good_slots`, the plan x branch matrix
form of the staged decoders' selection rule that `richowner.protocol._pick`
is checked against, and the twelve-branch catalog that the staged decoders'
eight branches were pruned from, run stage by stage, which the pruned
catalog's coverage is checked against.
Also the checks that only tests run: a profile's value of any subset and
its C(V | W) by subtraction, the toy machine's C(V | W) measured directly,
an oracle's chain-rule slack, the collinear set's projection counts by
formula, and the pigeonhole converse audit of explicit encoder/decoder
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from richowner.bits import BitString
from richowner.graphs import GraphError, LabeledBipartiteGraph, TableGraph, _as_node
from richowner.oracles import SUBSETS, Component, ToyOracle
from richowner.protocol import _CATALOG, _recover
from richowner.rng import SeedStream, derive_seed
from richowner.scenarios import IRREDUCIBLE, mul_table
from richowner.verification import _check_regime, _descr, _good_slots, _set_regime


def bs(bits: str) -> BitString:
    """The bit string of a literal like bs('0110'), most significant bit
    first."""
    if bits and set(bits) - {"0", "1"}:
        raise ValueError(f"not a bit string: {bits!r}")
    return BitString(len(bits), int(bits, 2) if bits else 0)


# -- fixed graphs ---------------------------------------------------------------

def complete_graph(n: int, m: int) -> TableGraph:
    """Each left node has one edge to every right node: label y lands on y."""
    table = np.tile(np.arange(1 << m, dtype=np.uint64), (1 << n, 1))
    return TableGraph(n, m, table)


def all_to_one_graph(n: int, m: int, d: int, hub: int = 0) -> TableGraph:
    """Every edge lands on the hub right node."""
    table = np.full((1 << n, 1 << d), hub, dtype=np.uint64)
    return TableGraph(n, m, table)


def neighbor_values(g: LabeledBipartiteGraph, x) -> list[int]:
    """x's right nodes by label, read as a block of one row."""
    [(_, rows)] = g.row_blocks(np.array([_as_node(g, x)]))
    return rows[0].tolist()


def b_degree(g, z: int, B) -> int:
    """Edges from members of B landing on z, counted with multiplicity."""
    return sum(neighbor_values(g, x).count(z) for x in B)


# -- scalar GF(2^q) reference ---------------------------------------------------

class FieldError(ValueError):
    pass


def _poly_for(q: int) -> int:
    try:
        return IRREDUCIBLE[q]
    except KeyError:
        raise FieldError(f"no fixed irreducible polynomial for q={q}") from None


@dataclass(frozen=True)
class FieldElement:
    q: int
    value: int

    def __post_init__(self):
        _poly_for(self.q)
        if not 0 <= self.value < (1 << self.q):
            raise FieldError(f"value {self.value} out of range for GF(2^{self.q})")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.q, self.value ^ other.value)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return gf_mul(self, other)

    def _check(self, other: "FieldElement"):
        if self.q != other.q:
            raise FieldError(f"mixed fields GF(2^{self.q}) and GF(2^{other.q})")


def gf_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Carry-less product reduced by the fixed irreducible polynomial."""
    a._check(b)
    poly = _poly_for(a.q)
    x, y, res = a.value, b.value, 0
    top = 1 << a.q
    while y:
        if y & 1:
            res ^= x
        y >>= 1
        x <<= 1
        if x & top:
            x ^= poly
    return FieldElement(a.q, res)


Point = tuple[FieldElement, FieldElement]


def is_collinear(a: Point, b: Point, c: Point) -> bool:
    """Determinant test (b - a) x (c - a) = 0 in the field."""
    lhs = gf_mul(b[0] + a[0], c[1] + a[1])
    rhs = gf_mul(b[1] + a[1], c[0] + a[0])
    return lhs.value == rhs.value


def point_to_int(p: Point) -> int:
    return (p[0].value << p[0].q) | p[1].value


def int_to_point(v: int, q: int) -> Point:
    return (FieldElement(q, v >> q), FieldElement(q, v & ((1 << q) - 1)))


def sample_collinear_triple(q: int, seed: int) -> tuple[Point, Point, Point]:
    """Uniform ordered triple of pairwise-distinct collinear points."""
    if q < 2:
        raise FieldError("need q >= 2 for three distinct points on a line")
    Q = 1 << q
    stream = SeedStream(derive_seed(seed, "collinear"))
    a = stream.randrange(Q * Q)
    b = stream.randrange(Q * Q - 1)
    if b >= a:
        b += 1
    pa, pb = int_to_point(a, q), int_to_point(b, q)
    # c = a + t*(b - a) for t outside {0, 1} walks the remaining line points.
    t = FieldElement(q, 2 + stream.randrange(Q - 2))
    dx, dy = pb[0] + pa[0], pb[1] + pa[1]
    pc = (pa[0] + gf_mul(t, dx), pa[1] + gf_mul(t, dy))
    return pa, pb, pc


def loop_collinear_members(q: int) -> np.ndarray:
    """collinear_members as a loop over second points and line parameters,
    one row block each, reordered by one lexsort at the end."""
    Q = 1 << q
    mul = mul_table(q)
    pts = np.arange(Q * Q, dtype=np.int64)
    ax, ay = pts >> q, pts & (Q - 1)
    rows = []
    for b in range(Q * Q):
        bx, by = b >> q, b & (Q - 1)
        dx, dy = ax ^ bx, ay ^ by
        valid = pts != b
        for t in range(2, Q):
            cx = ax ^ mul[t, dx]
            cy = ay ^ mul[t, dy]
            c = (cx << q) | cy
            rows.append(np.stack([pts[valid], np.full(valid.sum(), b), c[valid]], axis=1))
    members = np.concatenate(rows, axis=0)
    order = np.lexsort((members[:, 2], members[:, 1], members[:, 0]))
    return members[order]


# -- brute-force toy machine ------------------------------------------------------

def run_toy_program(program: int, nbits: int, side: tuple[Component, ...],
                    step_budget: int) -> Optional[tuple[Component, ...]]:
    """Execute one program; None if it is malformed or exceeds the budget."""
    pos = 0
    cur_w = 0
    cur_v = 0
    finished: list[Component] = []
    steps = 0
    n_side = len(side)
    while pos < nbits:
        if nbits - pos < 2:
            return None
        op = (program >> (nbits - pos - 2)) & 3
        pos += 2
        steps += 1
        if op == 0:  # LITERAL
            if nbits - pos < 4:
                return None
            ln = (program >> (nbits - pos - 4)) & 15
            pos += 4
            if nbits - pos < ln:
                return None
            if ln:
                payload = (program >> (nbits - pos - ln)) & ((1 << ln) - 1)
                pos += ln
                cur_v = (cur_v << ln) | payload
                cur_w += ln
                steps += ln
        elif op == 1:  # REPEAT
            cur_v = (cur_v << cur_w) | cur_v
            steps += cur_w
            cur_w *= 2
        elif op == 2:  # CONCAT
            if nbits - pos < 4:
                return None
            idx = (program >> (nbits - pos - 4)) & 15
            pos += 4
            if idx < n_side:
                w, v = side[idx]
            elif idx - n_side < len(finished):
                w, v = finished[idx - n_side]
            else:
                return None
            cur_v = (cur_v << w) | v
            cur_w += w
            steps += w
        else:  # END
            finished.append((cur_w, cur_v))
            cur_w = 0
            cur_v = 0
        if steps > step_budget:
            return None
    finished.append((cur_w, cur_v))
    return tuple(finished)


def brute_force_toy_table(side: tuple[Component, ...], max_len: int,
                          step_budget: int) -> dict[tuple[Component, ...], int]:
    """Minimal program length per output tuple, running every bit string of
    each length 0..max_len as a program."""
    table: dict[tuple[Component, ...], int] = {}
    for length in range(max_len + 1):
        for program in range(1 << length):
            out = run_toy_program(program, length, side, step_budget)
            if out is not None and out not in table:
                table[out] = length
    return table


# -- extractor audit references ---------------------------------------------------

def seed_stream_sampled_sets(family, n: int) -> list[tuple[int, ...]]:
    """A sampled family's sets in draw order, one randrange per member."""
    stream = SeedStream(derive_seed(family.seed, "bfamily"))
    sets = []
    for _ in range(family.count):
        members: set[int] = set()
        while len(members) < family.size:
            members.add(stream.randrange(1 << n))
        sets.append(tuple(sorted(members)))
    return sets


def listed_sizes(family, n: int) -> range:
    """The set sizes an exhaustive or all-of-size family names at width n,
    empty when it names none."""
    if family.mode != "exhaustive":
        return range(family.size, family.size + 1)
    N = 1 << n
    hi = N if family.max_size is None else min(family.max_size, N)
    return range(max(1, family.min_size), hi + 1)


def incidence_prefix_extractor(g, family, epsilons):
    """{epsilon: (checked, passed, worst error, failures)} of an exhaustive
    or all-of-size family: one member array per set size, in sorted tuple
    order, scored per prefix width by a set-incidence x counts product."""
    N, D = 1 << g.n, g.degree
    groups = []
    for size in listed_sizes(family, g.n):
        members = np.fromiter(chain.from_iterable(combinations(range(N), size)),
                              dtype=np.int64)
        groups.append((size, members.reshape(-1, size)))
    counts = np.array([np.bincount(neighbor_values(g, x), minlength=1 << g.m)
                       for x in range(N)], dtype=np.int64)
    scored = []  # (k', size, members, devs, den) per width and set size
    for k_prime in range(1, g.m + 1):
        R = 1 << k_prime
        folded = counts.reshape(N, R, -1).sum(axis=2)
        for size, members in groups:
            if size >= R and len(members):
                incidence = np.zeros((len(members), N), dtype=np.int64)
                incidence[np.arange(len(members))[:, None], members] = 1
                devs = np.abs((incidence @ folded) * R - size * D).sum(axis=1)
                scored.append((k_prime, size, members, devs, 2 * size * D * R))
    results = {}
    for epsilon in map(Fraction, epsilons):
        checked, worst, failures, passed = 0, None, [], True
        for k_prime in range(1, g.m + 1):
            failing = []
            for width, size, members, devs, den in scored:
                if width != k_prime:
                    continue
                checked += len(devs)
                err = Fraction(int(devs.max()), den)
                worst = err if worst is None else max(worst, err)
                bad = np.flatnonzero(devs * epsilon.denominator > epsilon.numerator * den)
                passed = passed and not bad.size
                failing += [(members[b].tolist(), Fraction(int(devs[b]), den))
                            for b in bad[:20]]
            for B, err in sorted(failing)[: 20 - len(failures)]:
                failures.append({"k_prime": k_prime, "B_descriptor": _descr(B),
                                 "worst_error": str(err)})
        results[epsilon] = (checked, passed, worst, failures)
    return results


@dataclass(frozen=True)
class OwnerClassification:
    node: BitString
    regime: str  # 'small' | 'large'
    rich: bool
    owned_fraction: Fraction
    threshold_used: int


def classify_owner(g: LabeledBipartiteGraph, B: Iterable, x, k: int,
                   delta) -> OwnerClassification:
    """Classify x within B: small regime counts exclusively-owned neighbors,
    large regime counts neighbors whose congestion stays under threshold.

    The owned (or well-behaved) fraction is computed exactly over all
    degree-many edge slots of x.
    """
    delta = _check_regime(k, delta)
    members = sorted({_as_node(g, v) for v in B})
    xi = _as_node(g, x)
    if xi not in members:
        raise GraphError(f"node {xi} not a member of B")
    small, threshold = _set_regime(g, len(members), k, delta)
    good = _good_slots(g, members, small, threshold)[members.index(xi)]
    frac = Fraction(int(good), g.degree)
    return OwnerClassification(
        node=BitString(g.n, xi), regime="small" if small else "large",
        rich=frac >= 1 - delta, owned_fraction=frac, threshold_used=threshold,
    )


# -- selection rule reference ---------------------------------------------------------

def matrix_pick(signatures: np.ndarray, outcome, step_budget: int):
    """The selection rule over (plans x branches) step and match matrices,
    one outcome(idx, bound) per cell; returns what protocol._pick does."""
    plans = len(signatures)
    steps = np.empty((plans, len(_CATALOG)), dtype=np.int64)
    matched = np.empty(steps.shape, dtype=bool)
    for idx, (_, lead, _) in enumerate(_CATALOG):
        for plan in range(plans):
            bound = None if lead is None else int(signatures[plan, lead])
            matched[plan, idx], steps[plan, idx] = outcome(idx, bound)
    never = np.iinfo(np.int64).max
    masked = np.where(matched, steps, never)
    ok = matched.any(axis=1)
    plan_steps = np.where(ok, masked.min(axis=1), steps.max(axis=1))
    eligible = ok & (plan_steps <= step_budget // plans + 1)
    if not eligible.any():
        return None, -1, int(plan_steps.max())
    rank = int(np.where(eligible, plan_steps, never).argmin())
    return rank, int(masked[rank].argmin()), int(plan_steps[rank])


# -- the twelve-branch catalog --------------------------------------------------------

# The staged decoders' catalog before it was pruned, in its order, as (name,
# lead, stages) like protocol._CATALOG: the six chains, helper-B and
# helper-C, joint-BC and joint-CB, and the pair-arithmetic helpers.  A lead
# names the first stage's bound: "C(t)" is the opener bound C(t) + slack,
# "C(A,t)" the pair-arithmetic bound max(C(A,t) - n_A + slack, 0), t the
# stage's target; None leaves every stage at its target's rate plus slack.
TWELVE_BRANCH_CATALOG = (
    *(("chain-" + "ABC"[i] + "ABC"[j] + "ABC"[k], "C(t)",
       ((i, (), ()), (j, (i,), ()), (k, tuple(sorted((i, j))), ())))
      for i, j, k in permutations((0, 1, 2))),
    ("helper-B", None, ((1, (), (0,)), (0, (1,), ()), (2, (0, 1), ()))),
    ("helper-C", None, ((2, (), (0,)), (0, (2,), ()), (1, (0, 2), ()))),
    ("joint-BC", None, ((1, (), (0, 2)), (2, (1,), (0,)), (0, (1, 2), ()))),
    ("joint-CB", None, ((2, (), (0, 1)), (1, (2,), (0,)), (0, (1, 2), ()))),
    ("pair-arith-B", "C(A,t)", ((1, (), (0,)), (0, (1,), ()), (2, (0, 1), ()))),
    ("pair-arith-C", "C(A,t)", ((2, (), (0,)), (0, (2,), ()), (1, (0, 2), ()))),
)


def twelve_branch_outcomes(profile, rates, slack: int, codewords, oracle,
                           graphs) -> dict[str, tuple[Optional[tuple], int]]:
    """{name: (triple or None, steps)} of every twelve-branch catalog entry
    under one profile's plan, each stage run through protocol._recover with
    one memo; bounds clamp at 0."""
    memo: dict = {}
    outcomes = {}
    for name, lead, stages in TWELVE_BRANCH_CATALOG:
        t = stages[0][0]
        bounds = [rates[target] + slack for target, _, _ in stages]
        if lead == "C(t)":
            bounds[0] = profile_value(profile, (t,)) + slack
        elif lead == "C(A,t)":
            bounds[0] = profile_value(profile, (0, t)) - rates[0] + slack
        recovered, steps = {}, 0
        for stage, bound in zip(stages, bounds):
            x, cost = _recover(*stage, max(bound, 0), recovered, codewords, oracle,
                               graphs, memo)
            steps += cost
            if x is None:
                break
            recovered[stage[0]] = x
        triple = (recovered[0], recovered[1], recovered[2]) if len(recovered) == 3 else None
        outcomes[name] = (triple, steps)
    return outcomes


# -- checks only the tests run ----------------------------------------------------------

def profile_value(profile, subset) -> int:
    """C(x_V) of a coordinate subset given in any order, read off a profile."""
    return profile.values[SUBSETS.index(tuple(sorted(set(subset))))]


def profile_conditional(profile, V: tuple, W: tuple) -> int:
    """C(x_V | x_W) by subtraction for disjoint V and W: C(V u W) - C(W),
    with C of the empty set 0."""
    return profile_value(profile, V + W) - (profile_value(profile, W) if W else 0)


def toy_conditional(oracle: ToyOracle, V, W, triple) -> int:
    """C(x_V | x_W) measured directly: the shortest program printing the V
    strings given the W strings as side input, or the floor L + 1."""
    c = oracle.complexity(tuple(triple[i] for i in V), tuple(triple[i] for i in W))
    return oracle.cfg.max_len + 1 if c is None else c


def chain_rule_slack(oracle, triple) -> int:
    """Worst |C(V u W) - C(W) - C(x_V | x_W)| over disjoint non-empty V, W.

    Identically 0 for the counting oracle, whose conditionals are defined
    by subtraction; measured directly for the toy machine.
    """
    profile = oracle.profile(triple)
    worst = 0
    for V in SUBSETS:
        for W in SUBSETS:
            if set(V) & set(W):
                continue
            if isinstance(oracle, ToyOracle):
                cond = toy_conditional(oracle, V, W, triple)
            else:
                cond = profile_conditional(profile, V, W)
            gap = abs(profile_value(profile, V + W) - profile_value(profile, W) - cond)
            worst = max(worst, gap)
    return worst


def collinear_counts(q: int) -> dict:
    """Exact projection counts of the collinear-distinct set."""
    Q = 1 << q
    total = Q * Q * (Q * Q - 1) * (Q - 2)
    return {
        "total": total,
        "single": Q * Q,
        "pair": Q * Q * (Q * Q - 1),
        "fiber_third": Q - 2,
    }


# -- pigeonhole converse audit ---------------------------------------------------

@dataclass(frozen=True)
class ConverseVerdict:
    passed: bool
    success_rate: Fraction
    best_coin: int
    witness: Optional[tuple[int, int]] = None  # two strings sharing a codeword


def converse_bound_check(
    encoder_tables: Sequence[Mapping[int, BitString]],
    decoder_table: Mapping[BitString, int],
    k: int,
    epsilon,
) -> ConverseVerdict:
    """Audit explicit tables against the compression lower bound.

    encoder_tables holds one deterministic table per recorded coin value;
    the decoder maps codewords back to strings.  The audit recounts, for
    the best coin, how many of the 2^k strings decode correctly.  If the
    claimed success floor 1 - epsilon is met the tables pass (the encoder
    is then automatically injective on the successful strings).  Otherwise,
    whenever every codeword is shorter than log2((1-epsilon) * 2^k) bits,
    a pigeonhole collision witness (two strings, shared codeword) is
    returned alongside the recounted rate.
    """
    epsilon = Fraction(epsilon)
    M = 1 << k
    if not encoder_tables:
        raise ValueError("need at least one encoder table")
    best_rate, best_coin = Fraction(-1), 0
    for coin, table in enumerate(encoder_tables):
        if set(table) != set(range(M)):
            raise ValueError(f"encoder table for coin {coin} does not cover {M} strings")
        good = sum(1 for x in range(M) if decoder_table.get(table[x]) == x)
        rate = Fraction(good, M)
        if rate > best_rate:
            best_rate, best_coin = rate, coin
    if best_rate >= 1 - epsilon:
        return ConverseVerdict(passed=True, success_rate=best_rate, best_coin=best_coin)
    witness = None
    need = (1 - epsilon) * M
    max_len = max(cw.width for table in encoder_tables for cw in table.values())
    if need > 1 and max_len < math.log2(need):
        table = encoder_tables[best_coin]
        seen: dict[BitString, int] = {}
        for x in range(M):
            cw = table[x]
            if cw in seen:
                witness = (seen[cw], x)
                break
            seen[cw] = x
    return ConverseVerdict(
        passed=False, success_rate=best_rate, best_coin=best_coin, witness=witness
    )
