"""Brute-force and certified verification of graph properties.

Two properties are audited: the prefix edge-density property (every large
enough left set hits every right set with density within epsilon of
uniform) and rich ownership (most members of a left set own most of their
neighbors, or see near-average congestion).

"Every left set" is undecidable at scale, so audits run over a BFamily
that fixes scope: exhaustive for n <= 4, all sets of one size while the
binomial count stays enumerable, seeded random families otherwise.  For
all-of-size families too large to enumerate, small-regime richness is
decided by a sound pairwise-damage certificate that covers every set of
that size exactly, or reported inconclusive when the union bound is too
weak and no witness set fails; reports state which route was taken.

Both regimes of rich ownership and the certificate's pairwise damage bound
read one kernel, _slot_loads, which tallies a node's edge slots by its own
multiplicity and the other members' load on each endpoint; it is the only
place here that reads the layout of a split graph.

All pass/fail decisions use exact rational arithmetic; no floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bits import BitString
from .graphs import TABLE_CAP, GraphError, LabeledBipartiteGraph, SplitGraph
from .crt import colliding_prime_indices
from .rng import SeedStream, derive_seed

# Largest number of sets an all-of-size family will enumerate one by one.
ENUM_CAP = 60_000
# Cells per temporary array of the edge-density product: small blocks keep
# the audit's peak memory at that of the family's set tuples.
BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class BFamily:
    """Audit scope: which left sets get checked.

    mode 'exhaustive' enumerates every subset (only sane for n <= 4),
    'all-of-size' every subset of one size, 'sampled' a seeded random
    family of subsets of one size.
    """

    mode: str
    size: Optional[int] = None
    count: Optional[int] = None
    seed: Optional[int] = None
    min_size: int = 1
    max_size: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "all-of-size", "sampled"):
            raise ValueError(f"unknown family mode {self.mode!r}")
        if self.mode in ("all-of-size", "sampled") and not self.size:
            raise ValueError(f"{self.mode} family needs a size")
        if self.mode == "sampled" and (not self.count or self.seed is None):
            raise ValueError("sampled family needs count and seed")

    @classmethod
    def default_for(cls, n: int, k: int, seed: int) -> "BFamily":
        size = 1 << k
        if n <= 4:
            return cls(mode="exhaustive")
        if math.comb(1 << n, size) <= ENUM_CAP:
            return cls(mode="all-of-size", size=size)
        return cls(mode="sampled", size=size, count=128, seed=seed)

    def set_count(self, n: int) -> int:
        N = 1 << n
        if self.mode == "exhaustive":
            hi = N if self.max_size is None else min(self.max_size, N)
            return sum(math.comb(N, s) for s in range(max(1, self.min_size), hi + 1))
        if self.mode == "all-of-size":
            return math.comb(N, self.size)
        return self.count

    def _enumerated_sizes(self, n: int) -> range:
        """The set sizes of an exhaustive or all-of-size family, each taken
        as every subset of that size; refuses families too large to list."""
        N = 1 << n
        if self.mode == "exhaustive":
            if n > 4:
                raise GraphError(f"exhaustive family not permitted at n={n} > 4")
            hi = N if self.max_size is None else min(self.max_size, N)
            return range(max(1, self.min_size), hi + 1)
        if math.comb(N, self.size) > ENUM_CAP:
            raise GraphError(
                f"all-of-size family with C({N},{self.size}) sets cannot be "
                "enumerated; use the certified richness audit"
            )
        return range(self.size, self.size + 1)

    def iter_sets(self, n: int) -> Iterator[tuple[int, ...]]:
        N = 1 << n
        if self.mode != "sampled":
            for s in self._enumerated_sizes(n):
                yield from combinations(range(N), s)
        else:
            stream = SeedStream(derive_seed(self.seed, "bfamily"))
            for _ in range(self.count):
                members: set[int] = set()
                while len(members) < self.size:
                    members.add(stream.randrange(N))
                yield tuple(sorted(members))


# -- edge-density (extractor) checks ----------------------------------------

def _as_int_set(g, nodes, side: str) -> list[int]:
    width = g.n if side == "left" else g.m
    out = []
    for v in nodes:
        if isinstance(v, BitString):
            if v.width != width:
                raise GraphError(f"{side} node width {v.width} != {width}")
            out.append(v.value)
        else:
            out.append(int(v))
    return out


@dataclass
class VerificationReport:
    graph: LabeledBipartiteGraph = field(repr=False, compare=False)
    kind: str
    k: int
    delta: Optional[Fraction]
    epsilon: Optional[Fraction]
    mode: str
    checked: int
    passed: Optional[bool]  # None: the certificate was inconclusive
    worst_error: Optional[Fraction] = None
    min_rich_fraction: Optional[Fraction] = None
    certified: bool = False
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def graph_id(self) -> str:
        """The audited graph's id, hashed when read: a table graph hashes
        its whole edge table, and only serialization needs the id."""
        return self.graph.graph_id()

    def to_json(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "kind": self.kind,
            "k": self.k,
            "delta": None if self.delta is None else str(self.delta),
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "mode": self.mode,
            "checked": self.checked,
            "passed": self.passed,
            "worst_error": None if self.worst_error is None else str(self.worst_error),
            "min_rich_fraction": (
                None if self.min_rich_fraction is None else str(self.min_rich_fraction)
            ),
            "certified": self.certified,
            "failures": self.failures,
            "notes": self.notes,
        }


def _endpoint_counts(g: LabeledBipartiteGraph) -> np.ndarray:
    """counts[x, z] = number of labels from x landing on z, at full width."""
    N, R = 1 << g.n, 1 << g.m
    if N * R > TABLE_CAP:
        raise GraphError(f"endpoint-count table of 2^{g.n} x 2^{g.m} cells "
                         "exceeds the table cap")
    table = g.edge_table()
    if table is None:
        return np.array([np.bincount(g.neighbor_values(x), minlength=R)
                         for x in range(N)], dtype=np.int64)
    offsets = table.astype(np.int64)
    offsets += np.arange(N, dtype=np.int64)[:, None] << g.m
    return np.bincount(offsets.ravel(), minlength=N * R).reshape(N, R)


def _size_groups(family: BFamily, n: int) -> list[tuple[int, np.ndarray]]:
    """(size, one row of members per set) for each size among the family's
    distinct sets, ascending; rows come in sorted tuple order.

    Exhaustive and all-of-size families are distinct already, and
    `combinations` yields each size in sorted order, so they are read
    straight into arrays; only a sampled family is deduplicated and sorted.
    """
    if family.mode == "sampled":  # every sampled set has the family's size
        sets = sorted(set(family.iter_sets(n)))
        return [(family.size, np.array(sets, dtype=np.int32).reshape(-1, family.size))]
    N = 1 << n
    groups = []
    for size in family._enumerated_sizes(n):
        count = math.comb(N, size)
        if count:
            members = np.fromiter(chain.from_iterable(combinations(range(N), size)),
                                  dtype=np.int32, count=size * count)
            groups.append((size, members.reshape(count, size)))
    return groups


def check_prefix_extractor(g: LabeledBipartiteGraph, epsilon,
                           family: BFamily) -> VerificationReport:
    """Check the edge-density property of every prefix width k' <= k.

    At width k' every family set B of size >= 2^k' is checked against every
    right set, where right nodes sharing their leading k' bits are merged.
    The worst deviation over all right sets is the total-variation distance
    between B's edge endpoints and uniform, dev / den with dev =
    sum_z |hist(z) 2^k' - |B| D| and den = 2 |B| D 2^k'.  Failures are
    recorded in k' order, then sorted set order; they are not raised.

    One endpoint-count table at the full width serves every k' by folding
    adjacent columns.  Per width and set size, one set-incidence x counts
    product gives every dev, compared with floor(epsilon den) in integers;
    a Fraction is built only for the worst error and the reported failures.
    """
    epsilon = Fraction(epsilon)
    N, D = 1 << g.n, g.degree
    counts = _endpoint_counts(g)
    groups = _size_groups(family, g.n)
    checked = 0
    worst: Optional[Fraction] = None
    failures = []
    passed = True
    for k_prime in range(1, g.m + 1):
        R = 1 << k_prime
        folded = counts.reshape(N, R, -1).sum(axis=2)
        failing = []
        for size, members in groups:
            if size < R:
                continue
            den = 2 * size * D * R
            # dev lies in [0, den]: the clamp keeps any epsilon's limit in int64
            limit = max(-1, min(epsilon.numerator * den // epsilon.denominator, den))
            devs = np.empty(len(members), dtype=np.int64)
            step = max(1, BLOCK_CELLS // max(N, R))
            for lo in range(0, len(members), step):
                block = members[lo:lo + step]
                incidence = np.zeros((len(block), N), dtype=np.int64)
                incidence[np.arange(len(block))[:, None], block] = 1
                devs[lo:lo + step] = np.abs((incidence @ folded) * R - size * D).sum(axis=1)
            checked += len(devs)
            err = Fraction(int(devs.max()), den)
            if worst is None or err > worst:
                worst = err
            bad = np.flatnonzero(devs > limit)
            if bad.size:
                passed = False
            failing += [(members[b].tolist(), Fraction(int(devs[b]), den))
                        for b in bad[: 20 - len(failures)]]
        for B, err in sorted(failing)[: 20 - len(failures)]:
            failures.append({"k_prime": k_prime, "B_descriptor": _descr(B),
                             "worst_error": str(err)})
    return VerificationReport(
        graph=g, kind="prefix-extractor", k=g.m, delta=None,
        epsilon=epsilon, mode=family.mode, checked=checked, passed=passed,
        worst_error=worst, failures=failures,
    )


def _descr(B: Sequence[int]) -> str:
    if len(B) <= 16:
        return ",".join(str(x) for x in B)
    return f"size={len(B)},head={','.join(str(x) for x in B[:8])},..."


# -- rich-owner classification ----------------------------------------------

@dataclass(frozen=True)
class OwnerClassification:
    node: BitString
    regime: str  # 'small' | 'large'
    rich: bool
    owned_fraction: Fraction
    threshold_used: int


def large_regime_threshold(delta: Fraction, b_size: int, degree: int, k: int) -> int:
    return math.ceil(Fraction(2) / (Fraction(delta) ** 2) * b_size * degree / (1 << k))


def classify_owner(g: LabeledBipartiteGraph, B: Iterable, x, k: int,
                   delta) -> OwnerClassification:
    """Classify x within B: small regime counts exclusively-owned neighbors,
    large regime counts neighbors whose congestion stays under threshold.

    The owned (or well-behaved) fraction is computed exactly over all
    degree-many edge slots of x.
    """
    delta = Fraction(delta)
    members = sorted(set(_as_int_set(g, B, "left")))
    xi = _as_int_set(g, [x], "left")[0]
    if xi not in members:
        raise GraphError(f"node {xi} not a member of B")
    return _classify(g, members, xi, k, delta, _set_threshold(g, len(members), k, delta))


def _set_threshold(g: LabeledBipartiteGraph, size: int, k: int, delta: Fraction) -> int:
    """1 in the small regime (size <= 2^k), the congestion threshold otherwise."""
    if size <= (1 << k):
        return 1
    return large_regime_threshold(delta, size, g.degree, k)


def _classify(g: LabeledBipartiteGraph, members: Sequence[int], xi: int, k: int,
              delta: Fraction, threshold: int) -> OwnerClassification:
    tally = _slot_loads(g, xi, [o for o in members if o != xi])
    small = len(members) <= (1 << k)
    if small:
        good = sum(count for (_, load), count in tally.items() if load == 0)
    else:
        good = sum(count for (own, load), count in tally.items()
                   if own + load <= threshold)
    frac = Fraction(good, g.degree)
    return OwnerClassification(
        node=BitString(g.n, xi), regime="small" if small else "large",
        rich=frac >= 1 - delta, owned_fraction=frac, threshold_used=threshold,
    )


def _slot_loads(g: LabeledBipartiteGraph, xi: int, others: Sequence[int]) -> Counter:
    """Tally xi's edge slots by (own, load), the one ownership kernel.

    For a slot of xi landing on right node z, `own` counts xi's edges on z
    and `load` counts the edges of `others` on z.  A split graph is read
    through its base graph: slot (y, i) lands on (i, xi mod p_i, base z),
    which another node shares only at the prime indices where it collides
    with xi.  Any other graph is the one-index case where every pair
    collides.  Indices with the same set of colliders have the same loads,
    so the work grows with xi's distinct base endpoints and the number of
    such groups, not with ell.
    """
    if isinstance(g, SplitGraph):
        base, ell = g.base, g.ell
        collisions = [colliding_prime_indices(xi, o, g.primes) for o in others]
    else:
        base, ell = g, 1
        collisions = [(0,)] * len(others)
    spoilers: dict[int, list[int]] = {}
    for o, indices in zip(others, collisions):
        for i in indices:
            spoilers.setdefault(i, []).append(o)
    groups = Counter(tuple(group) for group in spoilers.values())
    groups[()] += ell - len(spoilers)
    own = base.multiplicities(xi)
    tally: Counter = Counter()
    for group, indices in groups.items():
        if not indices:
            continue
        load = dict.fromkeys(own, 0)
        for o in group:
            other = base.multiplicities(o)
            for z in load:
                load[z] += other.get(z, 0)
        for z, count in own.items():
            tally[count, load[z]] += count * indices
    return tally


# -- family-level richness audits ---------------------------------------------

def rich_owner_fraction(g: LabeledBipartiteGraph, family: BFamily, k: int,
                        delta) -> VerificationReport:
    """Per-set fraction of rich owners; pass iff every checked set reaches
    1 - delta.

    Enumerable families are checked set by set.  An all-of-size family too
    large to enumerate is decided by the pairwise-damage certificate, which
    lower-bounds every member's owned fraction in *any* set of that size;
    when the certificate holds, every set of the family passes with rich
    fraction 1 and the report says so.  When it does not hold, a failing
    witness set fails the audit; with no witness the report is
    inconclusive: passed and min_rich_fraction are None.
    """
    delta = Fraction(delta)
    total = family.set_count(g.n)
    enumerable = not (
        family.mode == "all-of-size" and math.comb(1 << g.n, family.size) > ENUM_CAP
    )
    if enumerable:
        return _richness_by_enumeration(g, family, k, delta)
    if not isinstance(g, SplitGraph):
        raise GraphError(
            "certified richness audit requires a split graph; family too large"
        )
    if family.size > (1 << k):
        raise GraphError("certified audit only covers the small regime")
    return _richness_by_certificate(g, family, k, delta, total)


def _rich_fraction(g, B: Sequence[int], k: int, delta: Fraction) -> Fraction:
    members = sorted(set(_as_int_set(g, B, "left")))
    threshold = _set_threshold(g, len(members), k, delta)
    rich = sum(1 for x in members if _classify(g, members, x, k, delta, threshold).rich)
    return Fraction(rich, len(members))


def _richness_by_enumeration(g, family: BFamily, k: int,
                             delta: Fraction) -> VerificationReport:
    checked = 0
    min_frac: Optional[Fraction] = None
    failures = []
    passed = True
    for B in family.iter_sets(g.n):
        frac = _rich_fraction(g, B, k, delta)
        checked += 1
        if min_frac is None or frac < min_frac:
            min_frac = frac
        if frac < 1 - delta:
            passed = False
            if len(failures) < 20:
                failures.append({"B_descriptor": _descr(B), "rich_fraction": str(frac)})
    return VerificationReport(
        graph=g, kind="rich-owner", k=k, delta=delta, epsilon=None,
        mode=family.mode, checked=checked, passed=passed,
        min_rich_fraction=min_frac, failures=failures,
    )


def node_damage_bound(g: LabeledBipartiteGraph, xi: int, other: int) -> int:
    """Upper bound on the edge slots of xi that `other` can spoil.

    These are the slots of xi whose endpoint `other` loads; overlaps
    between several spoilers only make the union bound safer.
    """
    return sum(count for (_, load), count in _slot_loads(g, xi, [other]).items()
               if load)


def _richness_by_certificate(g: SplitGraph, family: BFamily, k: int,
                             delta: Fraction, total: int) -> VerificationReport:
    """Union-bound certificate over every set of the family's size.

    Passes when no node can lose more than delta of its slots to its
    size - 1 worst spoilers.  Otherwise the worst set of each uncertified
    node (up to 50) is checked as a witness: a failing witness fails the
    audit, and with none the report is inconclusive (passed None).
    """
    N = 1 << g.n
    size = family.size
    slots = g.degree
    allowance = delta * slots
    ranked_spoilers = {}
    worst_lb: Optional[Fraction] = None
    for xi in range(N):
        damage = {o: node_damage_bound(g, xi, o) for o in range(N) if o != xi}
        ranked = sorted(damage, key=damage.get, reverse=True)[: size - 1]
        worst_damage = sum(damage[o] for o in ranked)
        lb = 1 - Fraction(worst_damage, slots)
        if worst_lb is None or lb < worst_lb:
            worst_lb = lb
        if worst_damage > allowance:
            ranked_spoilers[xi] = ranked
    if not ranked_spoilers:
        return VerificationReport(
            graph=g, kind="rich-owner", k=k, delta=delta,
            epsilon=None, mode=f"{family.mode}:certified", checked=total,
            passed=True, min_rich_fraction=Fraction(1), certified=True,
            notes=[
                f"union-bound certificate: every node keeps owned fraction >= "
                f"{worst_lb} in every set of size {size}"
            ],
        )
    # Certificate failed for some nodes; try to exhibit a concrete failing set.
    failures, failing = [], []
    for xi, ranked in list(ranked_spoilers.items())[:50]:
        B = tuple(sorted([xi] + ranked))
        frac = _rich_fraction(g, B, k, delta)
        if frac < 1 - delta:
            failing.append(frac)
            failures.append({"B_descriptor": _descr(B), "rich_fraction": str(frac)})
    return VerificationReport(
        graph=g, kind="rich-owner", k=k, delta=delta, epsilon=None,
        mode=f"{family.mode}:certified", checked=total,
        passed=False if failures else None,
        min_rich_fraction=min(failing, default=None), certified=False,
        failures=failures,
        notes=[
            f"certificate inconclusive for {len(ranked_spoilers)} nodes; "
            f"{len(failures)} adversarial witnesses confirmed",
            f"union bound: every node keeps owned fraction >= {worst_lb} "
            f"in every set of size {size}, short of the {1 - delta} required",
        ],
    )
