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

# Fixed irreducible polynomials so every field computation is reproducible.
IRREDUCIBLE = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    8: 0b100011011,    # x^8 + x^4 + x^3 + x + 1
}


_MUL_TABLES: dict[int, np.ndarray] = {}


def mul_table(q: int) -> np.ndarray:
    """Full Q x Q multiplication table of GF(2^q) for vectorized geometry.

    Carry-less products reduced by the fixed irreducible polynomial, one
    shift-and-xor round per bit of the right factor.
    """
    table = _MUL_TABLES.get(q)
    if table is None:
        poly = IRREDUCIBLE.get(q)
        if poly is None:
            raise ValueError(f"no fixed irreducible polynomial for q={q}")
        Q = 1 << q
        x = np.arange(Q, dtype=np.int64)[:, None]
        y = np.arange(Q, dtype=np.int64)[None, :]
        table = np.zeros((Q, Q), dtype=np.int64)
        for bit in range(q):
            table ^= x * ((y >> bit) & 1)
            x = x << 1
            x ^= np.where(x & Q, poly, 0)
        _MUL_TABLES[q] = table
    return table


# -- collinear triples --------------------------------------------------------

def collinear_members(q: int) -> np.ndarray:
    """All ordered pairwise-distinct collinear triples as (count, 3) ints.

    Each point is packed into 2q bits (x-coordinate high).  Deterministic
    enumeration order: by first point, second point, then line parameter.
    """
    if q < 2:
        raise ValueError("need q >= 2")
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
