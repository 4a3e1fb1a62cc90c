"""Input generators and information-theoretic baselines.

The named correlation sets that scenario specs build (collinear point
triples over GF(2^q), diagonal, cube and hex-file sets), discrete
memoryless bit-triple sources and their entropy profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .bits import BitString
from .oracles import SUBSETS, CorrelationSet, check_width
from .specs import SCENARIOS, ConfigError, parse_spec

# Fixed irreducible polynomials so every field computation is reproducible.
IRREDUCIBLE = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    8: 0b100011011,    # x^8 + x^4 + x^3 + x + 1
}
# Most rows a named set may have: diagonal:n=21 is the largest measured to build.
MAX_MEMBERS = 1 << 21


def _irreducible(q: int) -> int:
    """The fixed irreducible polynomial of GF(2^q)."""
    poly = IRREDUCIBLE.get(q)
    if poly is None:
        raise ValueError(f"no fixed irreducible polynomial for q={q}")
    return poly


@lru_cache(maxsize=None)
def mul_table(q: int) -> np.ndarray:
    """Full Q x Q multiplication table of GF(2^q) for vectorized geometry,
    one read-only array per q.

    Carry-less products reduced by the fixed irreducible polynomial, one
    shift-and-xor round per bit of the right factor.
    """
    poly = _irreducible(q)
    Q = 1 << q
    x = np.arange(Q, dtype=np.int64)[:, None]
    y = np.arange(Q, dtype=np.int64)[None, :]
    table = np.zeros((Q, Q), dtype=np.int64)
    for bit in range(q):
        table ^= x * ((y >> bit) & 1)
        x = x << 1
        x ^= np.where(x & Q, poly, 0)
    table.flags.writeable = False
    return table


# -- collinear triples --------------------------------------------------------

def collinear_members(q: int) -> np.ndarray:
    """All ordered pairwise-distinct collinear triples as (count, 3) ints.

    Each point is packed into 2q bits (x-coordinate high).  Deterministic
    enumeration order: by first point, second point, then third point.

    One broadcast pass: for every ordered pair (a, b) of distinct points,
    the third points a + t (b - a), t in GF(2^q) minus {0, 1}, sorted.
    """
    mul = mul_table(q)  # refuses a q without a fixed polynomial, so every q < 2
    Q = 1 << q
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


# -- named correlation sets ---------------------------------------------------

def _read_set_file(path: str, n: Optional[int]) -> CorrelationSet:
    """Hex triples, one per line; n=None takes the width of the widest value.

    A malformed line names the file and its line number."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"scenario file {path}, line {lineno}"
            parts = line.split()
            if len(parts) != 3:
                raise ConfigError(f"{where}: expected 3 hex fields, got {line!r}")
            try:  # hex digits only, as BitString.from_hex reads them
                row = [BitString.from_hex(p, 4 * len(p)).value for p in parts]
            except ValueError:
                raise ConfigError(f"{where}: not a hex field in {line!r}") from None
            if n is not None and max(row) >> n:
                raise ConfigError(f"{where}: {line!r} holds a value out of range "
                                  f"for n={n}")
            rows.append(row)
    if n is None:
        n = max(1, max((v for row in rows for v in row), default=0).bit_length())
    return CorrelationSet(n, rows)


def named_correlation_set(spec: str) -> CorrelationSet:
    """Sets by spec: collinear:q=Q, diagonal:n=N, cube:n=N, file:<path>.
    A width or member count past its cap is refused unbuilt."""
    kind, args = parse_spec(spec, SCENARIOS)
    if kind not in ("collinear", "diagonal", "cube", "file"):
        raise ConfigError(f"scenario {spec!r} has no explicit member set")
    n = 2 * args["q"] if kind == "collinear" else args["n"]
    if n is not None:  # a file without n takes the width of its widest value
        check_width(n, f"spec {spec!r}")
    if kind == "file":
        return _read_set_file(args["path"], n)
    if kind == "collinear" and args["q"] not in IRREDUCIBLE:
        raise ConfigError(f"spec {spec!r}: no fixed irreducible polynomial for q={args['q']}")
    N = 1 << n  # points of the plane GF(2^q)^2 for collinear
    count = {"collinear": N * (N - 1) * ((1 << n // 2) - 2), "diagonal": N,
             "cube": N ** 3}[kind]
    if count > MAX_MEMBERS:
        raise ConfigError(f"spec {spec!r}: {count} members exceed the cap of "
                          f"{MAX_MEMBERS} rows")
    if kind == "collinear":
        return CorrelationSet(n, collinear_members(args["q"]))
    if kind == "diagonal":
        xs = np.arange(N, dtype=np.int64)
        return CorrelationSet(n, np.stack([xs, xs, xs], axis=1))
    return CorrelationSet(n, np.indices((N, N, N)).reshape(3, -1).T)


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
    for p in probs:  # marginal leaves out zero probabilities
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
