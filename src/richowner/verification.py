"""Brute-force and certified verification of graph properties.

Two properties are audited: the prefix edge-density property (every large
enough left set hits every right set with density within epsilon of
uniform) and rich ownership (most members of a left set own most of their
neighbors, or see near-average congestion).

"Every left set" is undecidable at scale, so audits run over a BFamily
that fixes scope: exhaustive for n <= 4, all sets of one size while the
binomial count stays enumerable, seeded random families otherwise.  An
exhaustive edge-density audit scores every left set as a bitmask, by
subset sums of the nodes' endpoint counts; the other families list their
sets as rows of members and count the endpoints of those members only.
A family that names no set is refused.  For all-of-size families too
large to enumerate, small-regime richness is decided by a sound
pairwise-damage certificate that covers every set of that size exactly,
or reported inconclusive when the union bound is too weak and no witness
set fails; reports state which route was taken.

Both regimes of rich ownership read one set-level kernel, _good_slots, over
the members' endpoint-count arrays; the certificate reads one damage table
over all left nodes.  These two are the only places here that read the
layout of a split graph.

All pass/fail decisions use exact rational arithmetic; no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bits import BitString
from .graphs import TABLE_CAP, GraphError, LabeledBipartiteGraph, SplitGraph, _as_left_int
from .oracles import _distinct
from .rng import derive_seed, raw_block
from .specs import FAMILIES

# Largest number of sets an all-of-size family will enumerate one by one.
ENUM_CAP = 60_000
# Cells per temporary array of the edge-density product: small blocks keep
# the audit's peak memory at that of the family's set tuples.
BLOCK_CELLS = 1 << 14
# Cells per low table, and so per scored block, of the exhaustive subset-sum
# kernel; a table over half of 16 nodes takes more past 64 right columns.
# 128 KB blocks scored fastest on a 2-core Xeon VM (2^12 to 2^16 cells tried).
LOW_CELLS = 1 << 14


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
        if self.mode in ("all-of-size", "sampled") and (self.size or 0) < 1:
            raise ValueError(f"{self.mode} family needs a positive size")
        if self.mode == "sampled" and ((self.count or 0) < 1 or self.seed is None):
            raise ValueError("sampled family needs a positive count and a seed")

    @classmethod
    def default_for(cls, n: int, k: int, seed: int) -> "BFamily":
        size = 1 << k
        if n <= 4:
            return cls(mode="exhaustive")
        if math.comb(1 << n, size) <= ENUM_CAP:
            return cls(mode="all-of-size", size=size)
        return cls(mode="sampled", size=size, count=128, seed=seed)

    def __str__(self) -> str:
        args = ",".join(f"{key}={getattr(self, key)}" for key in FAMILIES[self.mode]
                        if getattr(self, key) is not None)
        return f"{self.mode}:{args}"

    def set_count(self, n: int) -> int:
        if self.mode == "exhaustive":
            return sum(math.comb(1 << n, s) for s in self.sizes(n))
        if self.mode == "all-of-size":
            return math.comb(1 << n, self.size)
        return self.count

    def sizes(self, n: int) -> range:
        """The set sizes of the family at width n.  Refuses a family that
        names no set, an exhaustive family at n > 4 and an all-of-size
        family too large to list set by set."""
        N = 1 << n
        if self.mode == "exhaustive":
            if n > 4:
                raise GraphError(f"exhaustive family not permitted at n={n} > 4")
            hi = N if self.max_size is None else min(self.max_size, N)
            sizes = range(max(1, self.min_size), hi + 1)
        else:
            sizes = range(self.size, self.size + 1)
        if not sizes or sizes[-1] > N:
            raise GraphError(f"family {self} names no set of the {N} left nodes "
                             f"at width n={n}")
        if self.mode == "all-of-size" and math.comb(N, self.size) > ENUM_CAP:
            raise GraphError(
                f"all-of-size family with C({N},{self.size}) sets cannot be "
                "enumerated; use the certified richness audit"
            )
        return sizes

    def iter_sets(self, n: int) -> Iterator[tuple[int, ...]]:
        """The family's distinct sets: a sampled family's draws
        deduplicated, in sorted tuple order, and otherwise every set of the
        listed sizes, size by size."""
        sizes = self.sizes(n)
        if self.mode == "sampled":
            return iter(sorted(set(self._sampled_sets(n))))
        return chain.from_iterable(combinations(range(1 << n), s) for s in sizes)

    def _sampled_sets(self, n: int) -> list[tuple[int, ...]]:
        """The sampled sets in draw order.  Each draw is the top n bits of
        the next stream value, the value SeedStream.randrange(2**n) takes;
        a set redraws members it already has.  The values come from one
        block sized for the expected number of draws, and further blocks
        only if the walk runs past it."""
        N = 1 << n
        per_set = sum(N / (N - j) for j in range(self.size))  # expected draws
        block = int(self.count * per_set * 1.1) + 64
        seed = derive_seed(self.seed, "bfamily")
        draws = chain.from_iterable(
            (raw_block(seed, np.arange(start, start + block, dtype=np.uint64))
             >> np.uint64(64 - n)).tolist()
            for start in range(0, 1 << 64, block))
        sets = []
        for _ in range(self.count):
            members: set[int] = set()
            while len(members) < self.size:
                members.add(next(draws))
            sets.append(tuple(sorted(members)))
        return sets


# -- edge-density (extractor) checks ----------------------------------------

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
        """Every field, the graph as its id and Fractions as strings."""
        out = {"graph_id": self.graph_id}
        for f in fields(self):
            if f.name != "graph":
                value = getattr(self, f.name)
                out[f.name] = str(value) if isinstance(value, Fraction) else value
        return out


def _refuse_endpoint_table_past_cap(g: LabeledBipartiteGraph) -> None:
    if 1 << (g.n + g.m) > TABLE_CAP:
        raise GraphError(f"endpoint-count table of 2^{g.n} x 2^{g.m} cells "
                         "exceeds the table cap")


def _endpoint_counts(g: LabeledBipartiteGraph, nodes: np.ndarray) -> np.ndarray:
    """counts[j, z] = number of labels from nodes[j] landing on z, at full
    width.  A graph whose table over all 2^n nodes would pass the cap is
    refused whatever the nodes, so whether an audit runs does not depend
    on its family."""
    _refuse_endpoint_table_past_cap(g)
    R = 1 << g.m
    counts = np.empty((len(nodes), R), dtype=np.int64)
    for lo, rows in g.row_blocks(nodes):
        offsets = rows.view(np.int64)  # a new array of values below 2^63
        offsets += np.arange(len(rows), dtype=np.int64)[:, None] << g.m
        counts[lo:lo + len(rows)] = np.bincount(
            offsets.ravel(), minlength=len(rows) * R).reshape(-1, R)
        del rows, offsets  # released before the next block is built
    return counts


def _member_rows(family: BFamily, n: int) -> np.ndarray:
    """One row of members per distinct set of an all-of-size or sampled
    family, all of the family's one size, in sorted tuple order."""
    sets = family.iter_sets(n)
    members = np.fromiter(chain.from_iterable(sets), dtype=np.int32)
    return members.reshape(-1, family.size)


def _score_rows(members: np.ndarray, local: np.ndarray, shifted: np.ndarray,
                limits: dict):
    """Deviations of listed sets by one set-incidence x shifted-counts product;
    `local` holds each member's row of `shifted`.

    Returns, per set size, the set count and the largest deviation, and the
    failing sets (members, deviation) in sorted tuple order.
    """
    N, R = shifted.shape
    size = members.shape[1]
    devs = np.empty(len(members), dtype=np.int64)
    step = max(1, BLOCK_CELLS // max(N, R))
    for lo in range(0, len(members), step):
        block = local[lo:lo + step]
        incidence = np.zeros((len(block), N), dtype=np.int64)
        incidence[np.arange(len(block))[:, None], block] = 1
        devs[lo:lo + step] = np.abs(incidence @ shifted).sum(axis=1)
    bad = np.flatnonzero(devs > limits[size])
    return ({size: (len(devs), int(devs.max()))},
            ((members[b].tolist(), int(devs[b])) for b in bad))


@lru_cache(maxsize=None)
def _mask_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Facts about the 2^N masks over N <= 16 left nodes, bit i for node i:
    each mask's set size, and the masks in sorted member-tuple order."""
    size = np.zeros(1 << N, dtype=np.int32)
    rev = np.zeros(1 << N, dtype=np.int32)  # the mask's N bits reversed
    for i in range(N):
        size[1 << i:2 << i] = size[:1 << i] + 1
        rev[1 << i:2 << i] = rev[:1 << i] + (1 << (N - 1 - i))
    # Sorted member tuples, a shorter prefix first, are a preorder walk of
    # the tree whose children extend a tuple by one larger member; this is
    # a set's position in that walk, the empty set first.
    rank = size + (1 << N) - rev - (rev & -rev)
    rank[0] = 0
    lex = np.empty_like(rank)
    lex[rank] = np.arange(1 << N, dtype=np.int32)
    tables = (size.astype(np.uint8), lex)
    for table in tables:
        table.flags.writeable = False
    return tables


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """sums[:, mask] = the sum of rows[i] over the bits i of mask, by
    doubling; a column per mask keeps each block's sum over z a run of
    whole-row additions."""
    sums = np.zeros((rows.shape[1], 1 << len(rows)), dtype=np.int64)
    for i, row in enumerate(rows):
        np.add(sums[:, :1 << i], row[:, None], out=sums[:, 1 << i:2 << i])
    return sums


def _score_masks(shifted: np.ndarray, limits: dict):
    """Deviations of every left set, as a mask, by subset sums.

    Splits the nodes into a low part (at most LOW_CELLS cells of subset
    sums, unless half the nodes need more) and a high part, and scores one
    block of low masks per high mask h: dev = sum_z |low + high[h]|.
    Blocks holding no set of a checked size are skipped.  Returns what
    _score_rows does; failing sets are decoded only as they are read.
    """
    N, R = shifted.shape
    size, lex = _mask_tables(N)
    lo = min(N, max((N + 1) // 2, (LOW_CELLS // R).bit_length() - 1))
    low, high = _subset_sums(shifted[:lo]), _subset_sums(shifted[lo:])
    least, most = min(limits), max(limits)
    limit = np.full(N + 1, np.iinfo(np.int64).max)  # unchecked sizes never fail
    limit[list(limits)] = list(limits.values())
    devs = np.zeros(1 << N, dtype=np.int64)
    bad = np.zeros(1 << N, dtype=bool)
    block = np.empty_like(low)
    for h in range(high.shape[1]):
        if not least - lo <= size[h << lo] <= most:
            continue
        masks = slice(h << lo, (h + 1) << lo)
        np.add(low, high[:, h:h + 1], out=block)
        np.abs(block, out=block)
        block.sum(axis=0, out=devs[masks])
        np.greater(devs[masks], limit[size[masks]], out=bad[masks])
    tops = np.zeros(N + 1, dtype=np.int64)
    np.maximum.at(tops, size, devs)
    return ({s: (math.comb(N, s), int(tops[s])) for s in limits},
            (([i for i in range(N) if m >> i & 1], int(devs[m]))
             for m in map(int, lex[bad[lex]])))


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
    adjacent columns; shifting each node's row to hist(z) 2^k' - D makes
    every set's term the sum of its members' rows.  An exhaustive family
    gets those sums for every mask by subset sums; the other families by
    one set-incidence x shifted-counts product, over the rows of just the
    family's distinct members.  Each dev is compared with
    floor(epsilon den) in integers; a Fraction is built only for the worst
    error of each set size and the reported failures.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise GraphError(f"epsilon must be >= 0, got {epsilon}")
    _refuse_endpoint_table_past_cap(g)  # before the family is drawn
    sizes = family.sizes(g.n)
    if family.mode == "exhaustive":
        nodes = np.arange(1 << g.n)
        score = _score_masks
    else:
        members = _member_rows(family, g.n)
        nodes = _distinct(members.ravel())
        score = partial(_score_rows, members, np.searchsorted(nodes, members))
    N, D = len(nodes), g.degree
    counts = _endpoint_counts(g, nodes)
    checked = 0
    worst: Optional[Fraction] = None
    failures = []
    passed = True
    for k_prime in range(1, g.m + 1):
        R = 1 << k_prime
        dens = {size: 2 * size * D * R for size in sizes if size >= R}
        if not dens:
            continue
        # dev lies in [0, den]: the clamp keeps any epsilon's limit in int64
        limits = {size: max(-1, min(epsilon.numerator * den // epsilon.denominator, den))
                  for size, den in dens.items()}
        shifted = counts.reshape(N, R, -1).sum(axis=2) * R - D
        tops, failing = score(shifted, limits)
        for size, (count, top) in tops.items():
            checked += count
            err = Fraction(top, dens[size])
            if worst is None or err > worst:
                worst = err
            passed = passed and top <= limits[size]
        for B, dev in islice(failing, 20 - len(failures)):
            failures.append({"k_prime": k_prime, "B_descriptor": _descr(B),
                             "worst_error": str(Fraction(dev, dens[len(B)]))})
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
    delta = _check_regime(k, delta)
    members = sorted({_as_left_int(g, v) for v in B})
    xi = _as_left_int(g, x)
    if xi not in members:
        raise GraphError(f"node {xi} not a member of B")
    small, threshold = _set_regime(g, len(members), k, delta)
    good = _good_slots(g, members, small, threshold)[members.index(xi)]
    frac = Fraction(int(good), g.degree)
    return OwnerClassification(
        node=BitString(g.n, xi), regime="small" if small else "large",
        rich=frac >= 1 - delta, owned_fraction=frac, threshold_used=threshold,
    )


def _check_regime(k: int, delta) -> Fraction:
    """delta as a Fraction; refuses a delta outside (0, 1] or a negative k."""
    delta = Fraction(delta)
    if not (0 < delta <= 1 and k >= 0):
        raise GraphError(f"need 0 < delta <= 1 and k >= 0, got delta={delta} k={k}")
    return delta


def _set_regime(g: LabeledBipartiteGraph, size: int, k: int,
                delta: Fraction) -> tuple[bool, int]:
    """Whether a set of this size is in the small regime (size <= 2^k), and
    its threshold: 1 there, the congestion threshold otherwise."""
    if size <= (1 << k):
        return True, 1
    return False, large_regime_threshold(delta, size, g.degree, k)


def _good_slots(g: LabeledBipartiteGraph, members: Sequence[int], small: bool,
                threshold: int) -> np.ndarray:
    """Each member's good edge slots in the set of sorted distinct `members`.

    A slot on right node z is good when no other member's edge lands on z
    (small regime), or at most `threshold` of the members' edges do.  Base
    rows are counted over their distinct endpoints, so any right width
    works.  A split graph's slot (y, i) of x lands on (i, x mod p_i, base z),
    loaded by the members sharing x's residue mod p_i; indices past the
    stored primes, and primes that leave every residue distinct, leave each
    member alone.  Any other graph is the one-modulus case p = 1.
    """
    xs = np.asarray(members, dtype=np.int64)
    base, ell, primes = ((g.base, g.ell, g.primes) if isinstance(g, SplitGraph)
                         else (g, 1, np.ones(1, dtype=np.int64)))
    rows = np.concatenate([block for _, block in base.row_blocks(xs)])
    cols, inverse = np.unique(rows, return_inverse=True)
    M, C = len(xs), len(cols)
    cells = np.arange(M)[:, None] * C + inverse.reshape(rows.shape)
    own = np.bincount(cells.ravel(), minlength=M * C).reshape(M, C)

    def good(load: np.ndarray) -> np.ndarray:  # load: the group total on each cell
        return np.where(load == own if small else load <= threshold, own, 0).sum(axis=1)

    residues = xs % primes[:, None]
    residues.sort(axis=1)
    shared = (residues[:, 1:] == residues[:, :-1]).any(axis=1)
    slots = (ell - int(shared.sum())) * good(own)
    for p in primes[shared]:
        r = xs % p
        slots += good((r[:, None] == r).astype(np.int64) @ own)
    return slots


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
    delta = _check_regime(k, delta)
    total = family.set_count(g.n)
    enumerable = not (
        family.mode == "all-of-size" and math.comb(1 << g.n, family.size) > ENUM_CAP
    )
    if enumerable:
        return _richness_by_enumeration(g, family, k, delta)
    if family.size > (1 << k):
        raise GraphError("certified audit only covers the small regime")
    return _richness_by_certificate(g, family, k, delta, total)


def _rich_fraction(g, B: Sequence[int], k: int, delta: Fraction) -> Fraction:
    members = sorted({_as_left_int(g, v) for v in B})
    good = _good_slots(g, members, *_set_regime(g, len(members), k, delta))
    # a member is rich when good / D >= 1 - delta, and good is an integer
    rich = np.count_nonzero(good >= math.ceil((1 - delta) * g.degree))
    return Fraction(int(rich), len(members))


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


def _damage(g: LabeledBipartiteGraph) -> np.ndarray:
    """damage[x, o] = the edge slots of x whose endpoint o loads, for x != o:
    x's base counts dotted with o's base endpoints, times the stored primes
    dividing |x - o| for a split graph.  damage[x, x] = -1 ranks x last.
    Refuses a table past TABLE_CAP cells before it reads any row.
    """
    N = 1 << g.n
    if N * N > TABLE_CAP:
        raise GraphError(f"damage table of {N * N} cells exceeds the table cap")
    split = isinstance(g, SplitGraph)
    own = _endpoint_counts(g.base if split else g, np.arange(N))
    damage = own @ (own > 0).T
    if split:
        hits = np.zeros(N, dtype=np.int64)  # hits[d] = stored primes dividing d
        for p in g.primes:
            hits[::p] += 1
        # the windows of hits read outward from the middle: row x holds hits[|x - o|]
        mirrored = np.concatenate([hits[:0:-1], hits])
        damage *= np.lib.stride_tricks.sliding_window_view(mirrored, N)[::-1]
    np.fill_diagonal(damage, -1)
    return damage


def _richness_by_certificate(g: LabeledBipartiteGraph, family: BFamily, k: int,
                             delta: Fraction, total: int) -> VerificationReport:
    """Union-bound certificate over every set of the family's size.

    Passes when no node can lose more than delta of its slots to its
    size - 1 worst spoilers.  Otherwise the worst set of each uncertified
    node (up to 50) is checked as a witness: a failing witness fails the
    audit, and with none the report is inconclusive (passed None).
    """
    size = family.size
    slots = g.degree
    allowance = delta * slots
    ranked_spoilers = {}
    worst_lb: Optional[Fraction] = None
    for xi, row in enumerate(_damage(g)):
        # damage descending, ties to the lower node
        ranked = np.argsort(-row, kind="stable")[: size - 1]
        worst_damage = int(row[ranked].sum())
        lb = 1 - Fraction(worst_damage, slots)
        if worst_lb is None or lb < worst_lb:
            worst_lb = lb
        if worst_damage > allowance:
            ranked_spoilers[xi] = ranked.tolist()
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
