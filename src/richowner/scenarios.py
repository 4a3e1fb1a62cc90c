"""Input generators and information-theoretic baselines.

Collinear point triples over GF(2^q), discrete memoryless bit-triple
sources and their entropy profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

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
    enumeration order: by first point, second point, then third point.

    One broadcast pass: for every ordered pair (a, b) of distinct points,
    the third points a + t (b - a), t in GF(2^q) minus {0, 1}, sorted.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    Q = 1 << q
    mul = mul_table(q)
    a, b = np.nonzero(~np.eye(Q * Q, dtype=bool))  # a-major, then b
    a, b = a[:, None], b[:, None]
    d, t = a ^ b, np.arange(2, Q)
    c = (a >> q) ^ mul[t, d >> q]  # the third points' x, then packed with y
    c <<= q
    c |= (a & (Q - 1)) ^ mul[t, d & (Q - 1)]
    c.sort(axis=1)
    members = np.empty((len(c), Q - 2, 3), dtype=np.int64)
    members[..., 0], members[..., 1], members[..., 2] = a, b, c
    return members.reshape(-1, 3)


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
