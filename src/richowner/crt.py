"""Residue fingerprinting over the first t primes.

A value u is tagged by (p, u mod p) for a randomly drawn prime p.  Two
distinct n-bit values collide on at most n primes, so a scheme with
t = ceil((1/epsilon) * s * n) primes isolates a value from s distractors
with probability at least 1 - epsilon.  This is fingerprinting, not
authentication: no cryptographic guarantees.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bits import BitString
from .rng import SeedStream, derive_seed

# Most primes a tag scheme or an edge split may take.
PRIME_CAP = 1 << 24


@lru_cache(maxsize=None)
def primes_first(t: int, below: Optional[int] = None) -> np.ndarray:
    """The first t primes, or just those of them below `below`,
    deterministically, via a sieve up to the smaller of `below` and the
    bound for p_t: one read-only int64 array per (t, below), shared by
    every caller."""
    t = max(t, 0)
    # p_t < t (ln t + ln ln t) for t >= 6 (Rosser); the pad covers t < 6.
    bound = 15 if t < 6 else int(t * (math.log(t) + math.log(math.log(t)))) + 10
    top = bound if below is None else max(min(bound, below - 1), 1)
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(top ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64, copy=False)[:t]
    primes.flags.writeable = False
    return primes


@dataclass(frozen=True)
class HashTag:
    prime: int
    residue: int

    def __post_init__(self):
        if self.prime < 2:
            raise ValueError(f"prime must be >= 2, got {self.prime}")
        if not 0 <= self.residue < self.prime:
            raise ValueError(f"residue {self.residue} out of range mod {self.prime}")

    def wire(self) -> str:
        return f"{self.prime}:{self.residue}"

    @classmethod
    def from_wire(cls, text: str) -> "HashTag":
        p, r = text.split(":")
        return cls(int(p), int(r))

    def matches(self, u: Union[int, BitString, np.ndarray]):
        """Exact: whether u is congruent to the residue mod the prime, one
        bool per value of an int64 array."""
        return (u.value if isinstance(u, BitString) else u) % self.prime == self.residue


class HashScheme:
    """Prime list sized for isolating one value among s distractors."""

    def __init__(self, n: int, s: int, epsilon: Fraction):
        epsilon = Fraction(epsilon)
        if n < 1 or s < 1 or not 0 < epsilon <= 1:
            raise ValueError(f"bad scheme parameters n={n} s={s} epsilon={epsilon}")
        self.n = n
        self.s = s
        self.epsilon = epsilon
        self.t = math.ceil(Fraction(s * n) / epsilon)
        if self.t > PRIME_CAP:  # refused before the sieve
            raise ValueError(f"scheme needs t={self.t} primes, past the cap of {PRIME_CAP}")
        self.primes = primes_first(self.t)

    def __repr__(self) -> str:
        return f"HashScheme(n={self.n}, s={self.s}, epsilon={self.epsilon}, t={self.t})"


def _as_int(u: Union[int, BitString]) -> int:
    return u.value if isinstance(u, BitString) else int(u)


def draw_hash_tag(u: Union[int, BitString], scheme: HashScheme, seed: int) -> HashTag:
    """Tag u with a uniformly drawn prime from the scheme (seeded)."""
    if isinstance(u, BitString) and u.width != scheme.n:
        raise ValueError(f"value width {u.width} != scheme width {scheme.n}")
    idx = SeedStream(derive_seed(seed, "crt-tag")).randrange(scheme.t)
    prime = int(scheme.primes[idx])
    return HashTag(prime, _as_int(u) % prime)


def colliding_prime_indices(u1, u2, primes: Sequence[int]) -> list[int]:
    """Indices i with u1 = u2 (mod primes[i]); at most n for n-bit values."""
    diff = abs(_as_int(u1) - _as_int(u2))
    if diff == 0:
        return list(range(len(primes)))
    hi = bisect_right(primes, diff)  # primes ascend; none above diff divides it
    return [i for i in range(hi) if diff % int(primes[i]) == 0]


def isolation_probability(u1, distractors: Iterable, scheme: HashScheme) -> Fraction:
    """Exact fraction of scheme primes whose tag separates u1 from all distractors.

    A value identical to u1 can never be separated, so the result is 0
    whenever u1 occurs among the distractors.
    """
    values = [_as_int(v) for v in distractors]
    if len(values) > scheme.s:
        raise ValueError(f"{len(values)} distractors exceed scheme budget s={scheme.s}")
    u = _as_int(u1)
    if u in values:
        return Fraction(0)
    bad: set[int] = set()
    for v in values:
        bad.update(colliding_prime_indices(u, v, scheme.primes))
    return Fraction(scheme.t - len(bad), scheme.t)
