"""Input generators and information-theoretic baselines.

Collinear point triples over GF(2^q), discrete memoryless bit-triple
sources, entropy profiles, and the pigeonhole converse audit for
encoder/decoder tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .bits import BitString
from .oracles import SUBSETS
from .rng import SeedStream, derive_seed

# Fixed irreducible polynomials so every field computation is reproducible.
IRREDUCIBLE = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    8: 0b100011011,    # x^8 + x^4 + x^3 + x + 1
}


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


def _mul_table(q: int) -> np.ndarray:
    """Full Q x Q multiplication table for vectorized geometry."""
    Q = 1 << q
    table = np.zeros((Q, Q), dtype=np.int64)
    for i in range(Q):
        fi = FieldElement(q, i)
        for j in range(i, Q):
            v = gf_mul(fi, FieldElement(q, j)).value
            table[i, j] = v
            table[j, i] = v
    return table


_MUL_TABLES: dict[int, np.ndarray] = {}


def mul_table(q: int) -> np.ndarray:
    if q not in _MUL_TABLES:
        _MUL_TABLES[q] = _mul_table(q)
    return _MUL_TABLES[q]


# -- collinear triples --------------------------------------------------------

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


def collinear_members(q: int) -> np.ndarray:
    """All ordered pairwise-distinct collinear triples as (count, 3) ints.

    Each point is packed into 2q bits (x-coordinate high).  Deterministic
    enumeration order: by first point, second point, then line parameter.
    """
    if q < 2:
        raise FieldError("need q >= 2")
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
    # Enumerated as (a, b, t); reorder rows to (a-major, b, t) deterministic order.
    order = np.lexsort((members[:, 2], members[:, 1], members[:, 0]))
    return members[order]


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


# -- memoryless bit-triple sources --------------------------------------------

TRIPLE_BITS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


@dataclass(frozen=True)
class SourceDistribution:
    """Exact joint distribution of one (bit, bit, bit) draw."""

    probs: tuple[Fraction, ...]  # indexed by 4a + 2b + c

    def __post_init__(self):
        if len(self.probs) != 8:
            raise ValueError("need 8 probabilities")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Union[Fraction, str]]) -> "SourceDistribution":
        probs = [Fraction(0)] * 8
        for key, value in mapping.items():
            key = key.lower().removeprefix("p")
            if len(key) != 3 or set(key) - {"0", "1"}:
                raise ValueError(f"bad outcome key {key!r}")
            probs[int(key, 2)] = Fraction(value)
        return cls(tuple(probs))

    def marginal(self, coords: Sequence[int]) -> dict[tuple, Fraction]:
        out: dict[tuple, Fraction] = {}
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            bits = TRIPLE_BITS[idx]
            key = tuple(bits[i] for i in coords)
            out[key] = out.get(key, Fraction(0)) + p
        return out


def sample_dms(dist: SourceDistribution, n: int, seed: int) -> tuple[BitString, BitString, BitString]:
    """n independent draws; position i of each output comes from draw i."""
    stream = SeedStream(derive_seed(seed, "dms"))
    cum = []
    acc = Fraction(0)
    for p in dist.probs:
        acc += p
        cum.append(acc)
    xa = xb = xc = 0
    denom = 1 << 53
    for _ in range(n):
        u = Fraction(stream.bits(53), denom)
        idx = next(i for i, threshold in enumerate(cum) if u < threshold)
        a, b, c = TRIPLE_BITS[idx]
        xa = (xa << 1) | a
        xb = (xb << 1) | b
        xc = (xc << 1) | c
    return BitString(n, xa), BitString(n, xb), BitString(n, xc)


def _entropy(probs: Iterable[Fraction]) -> float:
    h = 0.0
    for p in probs:
        if p == 0:
            continue
        h -= float(p) * math.log2(p.numerator) - float(p) * math.log2(p.denominator)
    return h


def entropy_profile(dist: SourceDistribution, n: int) -> tuple[float, ...]:
    """n times the per-draw joint entropy of each non-empty coordinate subset.

    Exact for dyadic probabilities (log2 of a power of two is exact in a
    double); otherwise good to about 1e-9.
    """
    out = []
    for coords in SUBSETS:
        out.append(n * _entropy(dist.marginal(coords).values()))
    return tuple(out)


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
