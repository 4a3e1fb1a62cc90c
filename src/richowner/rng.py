"""Deterministic counter-based randomness.

Every random draw in the package goes through this module so that results
are reproducible bit-for-bit across processes and platforms.  The generator
is a splitmix64-style finalizer applied to (seed, counter) pairs; there is
no hidden global state.
"""

from __future__ import annotations

import numpy as np

try:  # CPython's built-in BLAKE2: hashlib would also load OpenSSL's libcrypto
    from _blake2 import blake2b
except ImportError:  # a build without the built-in module
    from hashlib import blake2b

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _part_to_int(part) -> int:
    if isinstance(part, int):
        return part & _MASK64
    if isinstance(part, str):
        return int.from_bytes(
            blake2b(part.encode("utf-8"), digest_size=8).digest(), "little"
        )
    raise TypeError(f"seed parts must be int or str, got {type(part)!r}")


def derive_seed(seed: int, *parts) -> int:
    """Derive an independent child seed from (seed, parts).

    Used to hand out per-trial / per-sender / per-retry streams from one
    master seed so any single trial can be reproduced in isolation.
    """
    acc = mix64(seed ^ _GOLDEN)
    for part in parts:
        acc = mix64(acc + _GOLDEN + _part_to_int(part))
    return acc


def raw_block(seed: int, z: np.ndarray) -> np.ndarray:
    """The stream values at the uint64 indices z, of any shape: z is mixed
    in place, with one scratch array, and returned."""
    scratch = np.empty_like(z)
    with np.errstate(over="ignore"):
        z *= np.uint64(_GOLDEN)
        z += np.uint64(mix64(seed))
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(z, np.uint64(shift), out=scratch)
            z ^= scratch
            z *= np.uint64(factor)
        np.right_shift(z, np.uint64(31), out=scratch)
        z ^= scratch
    return z


def stream_value(seed: int, index: int) -> int:
    """Single stream value; agrees with raw_block at that index."""
    return mix64((mix64(seed) + index * _GOLDEN) & _MASK64)


class SeedStream:
    """Stateful counter wrapper over the stream for sequential draws."""

    def __init__(self, seed: int):
        self._seed = seed
        self._counter = 0

    def next_raw(self) -> int:
        v = stream_value(self._seed, self._counter)
        self._counter += 1
        return v

    def bits(self, width: int) -> int:
        """Uniform integer in [0, 2**width); width may be 0."""
        if width == 0:
            return 0
        out = 0
        need = width
        while need > 0:
            take = min(need, 64)
            out = (out << take) | (self.next_raw() >> (64 - take))
            need -= take
        return out

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        width = (n - 1).bit_length()
        while True:
            v = self.bits(width) if width else 0
            if v < n:
                return v
