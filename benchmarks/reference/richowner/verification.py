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
that size exactly; reports state which route was taken.

All pass/fail decisions use exact rational arithmetic; no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bits import BitString
from .graphs import (
    GraphError,
    LabeledBipartiteGraph,
    SeededGraph,
    SplitGraph,
    TableGraph,
)
from .construction import prefix_merge
from .rng import SeedStream, derive_seed

# Largest number of sets an all-of-size family will enumerate one by one.
ENUM_CAP = 60_000


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
        if n <= 8 and size <= 16 and math.comb(1 << n, size) <= ENUM_CAP:
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

    def iter_sets(self, n: int) -> Iterator[tuple[int, ...]]:
        N = 1 << n
        if self.mode == "exhaustive":
            if n > 4:
                raise GraphError(f"exhaustive family not permitted at n={n} > 4")
            hi = N if self.max_size is None else min(self.max_size, N)
            for s in range(max(1, self.min_size), hi + 1):
                yield from combinations(range(N), s)
        elif self.mode == "all-of-size":
            if math.comb(N, self.size) > ENUM_CAP:
                raise GraphError(
                    f"all-of-size family with C({N},{self.size}) sets cannot be "
                    "enumerated; use the certified richness audit"
                )
            yield from combinations(range(N), self.size)
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


def extractor_error(g: LabeledBipartiteGraph, B: Iterable, A: Iterable) -> Fraction:
    """| |E(B,A)| / (|B| D) - |A| / |R| |, exactly."""
    b = _as_int_set(g, B, "left")
    if not b:
        raise GraphError("B must be nonempty")
    a = set(_as_int_set(g, A, "right"))
    edges = sum(1 for x in b for v in g.neighbor_values(x) if v in a)
    return abs(Fraction(edges, len(b) * g.degree) - Fraction(len(a), 1 << g.m))


def _value_matrix(g: LabeledBipartiteGraph) -> Optional[np.ndarray]:
    if isinstance(g, TableGraph):
        return g.table
    if isinstance(g, SeededGraph):
        try:
            return g.to_table().table
        except GraphError:
            return None
    return None


def worst_extractor_error(g: LabeledBipartiteGraph, B: Sequence[int],
                          values: Optional[np.ndarray] = None) -> Fraction:
    """Worst edge-density deviation over every right set A, exactly.

    The maximum of |density(A) - |A|/|R|| over all A is the total-variation
    distance between the edge-endpoint distribution of B and uniform, i.e.
    (1/2) * sum_z |density(z) - 1/|R||; computed in integer arithmetic.
    """
    R = 1 << g.m
    if values is None:
        values = _value_matrix(g)
    if values is not None:
        hist = np.bincount(values[np.asarray(B, dtype=np.int64)].ravel(), minlength=R)
    else:
        hist = np.zeros(R, dtype=np.int64)
        for x in B:
            for v in g.neighbor_values(x):
                hist[v] += 1
    edges = len(B) * g.degree
    dev = np.abs(hist.astype(object) * R - edges)
    return Fraction(int(dev.sum()), 2 * edges * R)


@dataclass
class VerificationReport:
    graph_id: str
    kind: str
    k: int
    delta: Optional[Fraction]
    epsilon: Optional[Fraction]
    mode: str
    checked: int
    passed: bool
    worst_error: Optional[Fraction] = None
    min_rich_fraction: Optional[Fraction] = None
    certified: bool = False
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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


def _per_node_histograms(g: LabeledBipartiteGraph,
                         values: Optional[np.ndarray]) -> np.ndarray:
    """counts[x, z] = number of labels from x landing on z."""
    R = 1 << g.m
    N = 1 << g.n
    if values is not None:
        offsets = (np.arange(N, dtype=np.int64)[:, None] << g.m) | values.astype(np.int64)
        return np.bincount(offsets.ravel(), minlength=N * R).reshape(N, R)
    counts = np.zeros((N, R), dtype=np.int64)
    for x in range(N):
        for v in g.neighbor_values(x):
            counts[x, v] += 1
    return counts


def check_prefix_extractor(g: LabeledBipartiteGraph, epsilon,
                           family: BFamily) -> VerificationReport:
    """Check the edge-density property of every prefix width k' <= k.

    For each k', the graph is merged to width k' and every family set of
    size >= 2^k' is checked against every right set (via the exact
    total-variation identity).  Failures are recorded, not raised.
    """
    epsilon = Fraction(epsilon)
    k = g.m
    checked = 0
    worst: Optional[Fraction] = None
    failures = []
    passed = True
    sets = sorted(set(family.iter_sets(g.n)))
    for k_prime in range(1, k + 1):
        merged = prefix_merge(g, k_prime)
        counts = _per_node_histograms(merged, _value_matrix(merged))
        R = 1 << k_prime
        threshold = 1 << k_prime
        for B in sets:
            if len(B) < threshold:
                continue
            hist = counts[np.asarray(B, dtype=np.int64)].sum(axis=0)
            edges = len(B) * g.degree
            if edges * R < (1 << 62):
                dev = int(np.abs(hist * R - edges).sum())
            else:
                dev = sum(abs(int(h) * R - edges) for h in hist)
            err = Fraction(dev, 2 * edges * R)
            checked += 1
            if worst is None or err > worst:
                worst = err
            if err > epsilon:
                passed = False
                if len(failures) < 20:
                    failures.append(
                        {"k_prime": k_prime, "B_descriptor": _descr(B),
                         "worst_error": str(err)}
                    )
    return VerificationReport(
        graph_id=g.graph_id(), kind="prefix-extractor", k=k, delta=None,
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
    small = len(members) <= (1 << k)
    if small:
        frac = _owned_fraction_small(g, members, xi)
        threshold = 1
    else:
        threshold = large_regime_threshold(delta, len(members), g.degree, k)
        frac = _behaved_fraction_large(g, members, xi, threshold)
    node = BitString(g.n, xi)
    return OwnerClassification(
        node=node, regime="small" if small else "large",
        rich=frac >= 1 - delta, owned_fraction=frac, threshold_used=threshold,
    )


def _owned_fraction_small(g, members: list[int], xi: int) -> Fraction:
    others = [o for o in members if o != xi]
    if isinstance(g, SplitGraph):
        return _owned_fraction_small_split(g, others, xi)
    owned = 0
    other_sets = [g.neighbor_set(o) for o in others]
    for z in g.neighbor_values(xi):
        if all(z not in s for s in other_sets):
            owned += 1
    return Fraction(owned, g.degree)


def _collider_indices(g: SplitGraph, xi: int, other: int) -> np.ndarray:
    """Prime indices i where xi and other share a residue mod p_i."""
    diff = abs(xi - other)
    if diff == 0:
        return np.arange(g.ell)
    hi = int(np.searchsorted(g.primes, diff, side="right"))
    if hi == 0:
        return np.empty(0, dtype=np.int64)
    head = g.primes[:hi]
    return np.flatnonzero(diff % head == 0)


def _owned_fraction_small_split(g: SplitGraph, others: list[int], xi: int) -> Fraction:
    mult = g.base_multiplicities(xi)
    bad_by_z: dict[int, set[int]] = {}
    for o in others:
        idxs = _collider_indices(g, xi, o)
        if len(idxs) == 0:
            continue
        shared = g.base.neighbor_set(o)
        for z in mult:
            if z in shared:
                bad_by_z.setdefault(z, set()).update(int(i) for i in idxs)
    owned = 0
    for z, count in mult.items():
        owned += count * (g.ell - len(bad_by_z.get(z, ())))
    return Fraction(owned, g.degree)


def _behaved_fraction_large(g, members: list[int], xi: int, threshold: int) -> Fraction:
    if isinstance(g, SplitGraph):
        return _behaved_fraction_large_split(g, members, xi, threshold)
    totals: dict[int, int] = {}
    for o in members:
        for v in g.neighbor_values(o):
            totals[v] = totals.get(v, 0) + 1
    behaved = sum(1 for z in g.neighbor_values(xi) if totals[z] <= threshold)
    return Fraction(behaved, g.degree)


def _behaved_fraction_large_split(g: SplitGraph, members: list[int], xi: int,
                                  threshold: int) -> Fraction:
    mult = g.base_multiplicities(xi)
    others = [o for o in members if o != xi]
    collisions = {o: set(int(i) for i in _collider_indices(g, xi, o)) for o in others}
    union_bad = sorted(set().union(*collisions.values()) if collisions else set())
    behaved = 0
    for z, count in mult.items():
        base_load = mult[z]
        clean_ok = base_load <= threshold
        good = (g.ell - len(union_bad)) if clean_ok else 0
        for i in union_bad:
            load = base_load + sum(
                g.base_multiplicities(o).get(z, 0)
                for o in others if i in collisions[o]
            )
            if load <= threshold:
                good += 1
        behaved += count * good
    return Fraction(behaved, g.degree)


# -- family-level richness audits ---------------------------------------------

def rich_owner_fraction(g: LabeledBipartiteGraph, family: BFamily, k: int,
                        delta) -> VerificationReport:
    """Per-set fraction of rich owners; pass iff every checked set reaches
    1 - delta.

    Enumerable families are checked set by set.  An all-of-size family too
    large to enumerate is decided by the pairwise-damage certificate, which
    lower-bounds every member's owned fraction in *any* set of that size;
    when the certificate holds, every set of the family passes with rich
    fraction 1 and the report says so.
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


def _richness_by_enumeration(g, family: BFamily, k: int,
                             delta: Fraction) -> VerificationReport:
    checked = 0
    min_frac: Optional[Fraction] = None
    failures = []
    passed = True
    for B in family.iter_sets(g.n):
        rich = sum(1 for x in B if classify_owner(g, B, x, k, delta).rich)
        frac = Fraction(rich, len(B))
        checked += 1
        if min_frac is None or frac < min_frac:
            min_frac = frac
        if frac < 1 - delta:
            passed = False
            if len(failures) < 20:
                failures.append({"B_descriptor": _descr(B), "rich_fraction": str(frac)})
    return VerificationReport(
        graph_id=g.graph_id(), kind="rich-owner", k=k, delta=delta, epsilon=None,
        mode=family.mode, checked=checked, passed=passed,
        min_rich_fraction=min_frac, failures=failures,
    )


def node_damage_bound(g: SplitGraph, xi: int, other: int) -> int:
    """Upper bound on the edge slots of xi that `other` can spoil.

    A slot (y, i) is spoiled only when the base endpoint of y is shared
    with `other` and p_i divides xi - other, so shared_edges times the
    number of colliding prime indices bounds the damage (overlaps between
    several spoilers only make the union bound safer).
    """
    idxs = _collider_indices(g, xi, other)
    if len(idxs) == 0:
        return 0
    shared_nodes = g.base.neighbor_set(other)
    mult = g.base_multiplicities(xi)
    shared_edges = sum(count for z, count in mult.items() if z in shared_nodes)
    return shared_edges * len(idxs)


def _richness_by_certificate(g: SplitGraph, family: BFamily, k: int,
                             delta: Fraction, total: int) -> VerificationReport:
    N = 1 << g.n
    size = family.size
    slots = g.degree
    allowance = delta * slots
    uncertified = []
    worst_lb: Optional[Fraction] = None
    for xi in range(N):
        damages = sorted(
            (node_damage_bound(g, xi, o) for o in range(N) if o != xi),
            reverse=True,
        )
        worst_damage = sum(damages[: size - 1])
        lb = 1 - Fraction(worst_damage, slots)
        if worst_lb is None or lb < worst_lb:
            worst_lb = lb
        if worst_damage > allowance:
            uncertified.append(xi)
    if not uncertified:
        return VerificationReport(
            graph_id=g.graph_id(), kind="rich-owner", k=k, delta=delta,
            epsilon=None, mode=f"{family.mode}:certified", checked=total,
            passed=True, min_rich_fraction=Fraction(1), certified=True,
            notes=[
                f"union-bound certificate: every node keeps owned fraction >= "
                f"{worst_lb} in every set of size {size}"
            ],
        )
    # Certificate failed for some nodes; try to exhibit a concrete failing set.
    failures = []
    for xi in uncertified[:50]:
        ranked = sorted(
            (o for o in range(N) if o != xi),
            key=lambda o: node_damage_bound(g, xi, o),
            reverse=True,
        )
        B = tuple(sorted([xi] + ranked[: size - 1]))
        rich = sum(1 for x in B if classify_owner(g, B, x, k, delta).rich)
        frac = Fraction(rich, len(B))
        if frac < 1 - delta:
            failures.append({"B_descriptor": _descr(B), "rich_fraction": str(frac)})
    return VerificationReport(
        graph_id=g.graph_id(), kind="rich-owner", k=k, delta=delta, epsilon=None,
        mode=f"{family.mode}:certified", checked=total, passed=False,
        min_rich_fraction=worst_lb, certified=False, failures=failures,
        notes=[
            f"certificate inconclusive for {len(uncertified)} nodes; "
            f"{len(failures)} adversarial witnesses confirmed"
        ],
    )
