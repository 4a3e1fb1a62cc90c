from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from richowner.bits import BitString
from richowner.crt import (
    HashScheme,
    HashTag,
    colliding_prime_indices,
    draw_hash_tag,
    isolation_probability,
    primes_first,
)
from richowner.rng import SeedStream


def test_primes_first():
    assert primes_first(10).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_first(0).tolist() == []
    assert len(primes_first(480)) == 480
    assert primes_first(480)[-1] == 3413  # 480th prime


@pytest.mark.parametrize("t, below", [(10, 8), (3, 256), (54, 256), (480, 256),
                                      (262_144, 256), (5, 2), (480, 3414)])
def test_primes_first_below(t, below):
    primes = primes_first(t, below)
    assert primes.tolist() == [p for p in primes_first(t).tolist() if p < below]
    assert primes.dtype == np.int64 and not primes.flags.writeable


def test_primes_first_matches_trial_division():
    """One sieve holds p_t for every t up to 3000: Rosser's bound for
    t >= 6, the pad for t < 6.  Below `below` = t, p_t or p_t + 1 the
    result is the reference's prefix under `below`."""
    reference = []
    candidate = 2
    while len(reference) < 3000:
        if all(candidate % p for p in reference if p * p <= candidate):
            reference.append(candidate)
        candidate += 1
    sieve = primes_first.__wrapped__  # uncached: 12,000 arrays would stay alive
    for t in range(3001):
        assert sieve(t).tolist() == reference[:t]
        p_t = reference[t - 1] if t else 2
        for below in (t, p_t, p_t + 1):
            assert sieve(t, below).tolist() == [p for p in reference[:t] if p < below]


class TestCrtHash:
    def test_examples(self):
        assert HashTag(7, 6).matches(13) and not HashTag(7, 5).matches(13)
        assert HashTag(11, 0).matches(0)
        u = BitString(16, 2 ** 16 - 1)
        assert HashTag(65521, 14).matches(u)
        scheme = HashScheme(16, 3, Fraction(1, 10))
        for seed in range(20):
            tag = draw_hash_tag(u, scheme, seed)
            assert tag.residue == u.value % tag.prime

    def test_rejects_non_prime_modulus_below_two(self):
        with pytest.raises(ValueError, match="prime must be >= 2"):
            HashTag(1, 0)

    def test_tag_wire_round_trip(self):
        tag = HashTag(101, 17)
        assert HashTag.from_wire(tag.wire()) == tag

    def test_tag_verification_soundness(self):
        tag = HashTag(11, 173 % 11)
        for u in range(256):
            assert tag.matches(u) == (u % 11 == 173 % 11)

    def test_array_matches_each_value(self):
        # the membership decoder filters a column of int64 members at once
        values = np.arange(2 ** 21 - 300, 2 ** 21, dtype=np.int64)
        for tag in (HashTag(11, 7), HashTag(2, 0), HashTag(65521, 14)):
            assert tag.matches(values).tolist() == [tag.matches(int(u)) for u in values]


class TestScheme:
    def test_prime_count(self):
        scheme = HashScheme(16, 3, Fraction(1, 10))
        assert scheme.t == 480
        assert scheme.t >= scheme.s * scheme.n
        assert scheme.primes is primes_first(480)

    def test_single_prime_scheme(self):
        scheme = HashScheme(1, 1, Fraction(1))
        assert scheme.t == 1
        tag = draw_hash_tag(1, scheme, seed=99)
        assert tag.prime == 2


class TestDrawTag:
    def test_replay_determinism(self):
        scheme = HashScheme(8, 3, Fraction(1, 4))
        assert draw_hash_tag(200, scheme, seed=5) == draw_hash_tag(200, scheme, seed=5)

    def test_width_checked(self):
        scheme = HashScheme(8, 3, Fraction(1, 4))
        with pytest.raises(ValueError):
            draw_hash_tag(BitString(9, 0), scheme, seed=0)

    def test_index_histogram_uniform(self):
        # t = 10 scheme: 10^4 draws land within 5% of uniform per bucket.
        scheme = HashScheme(2, 1, Fraction(1, 5))
        assert scheme.t == 10
        counts = {p: 0 for p in scheme.primes}
        for i in range(10_000):
            counts[draw_hash_tag(3, scheme, seed=i).prime] += 1
        for p, c in counts.items():
            assert abs(c / 10_000 - 0.1) < 0.05


class TestIsolation:
    def test_identical_value_never_isolated(self):
        scheme = HashScheme(8, 3, Fraction(1, 4))
        assert isolation_probability(7, {7}, scheme) == 0

    def test_difference_one_always_isolated(self):
        scheme = HashScheme(8, 3, Fraction(1, 4))
        assert isolation_probability(1, {2}, scheme) == 1

    def test_exact_sweep_example(self):
        scheme = HashScheme(8, 3, Fraction(1, 10))
        p = isolation_probability(173, {5, 201}, scheme)
        # independent recount over the full prime list
        bad = set()
        for i, prime in enumerate(scheme.primes):
            for v in (5, 201):
                if 173 % prime == v % prime:
                    bad.add(i)
        assert p == Fraction(scheme.t - len(bad), scheme.t)
        assert p >= 1 - Fraction(1, 10)

    def test_budget_enforced(self):
        scheme = HashScheme(8, 2, Fraction(1, 4))
        with pytest.raises(ValueError):
            isolation_probability(1, {2, 3, 4}, scheme)

    def test_isolation_lower_bound(self):
        scheme = HashScheme(8, 3, Fraction(1, 10))
        stream = SeedStream(31337)
        for _ in range(200):
            u1 = stream.bits(8)
            distractors = set()
            while len(distractors) < 2:
                v = stream.bits(8)
                if v != u1:
                    distractors.add(v)
            p = isolation_probability(u1, distractors, scheme)
            assert p >= 1 - Fraction(len(distractors) * scheme.n, scheme.t)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
def test_divisor_count_bound(u1, u2):
    # Distinct 16-bit values agree modulo at most 16 of the scheme primes.
    primes = primes_first(480)
    collisions = colliding_prime_indices(u1, u2, primes)
    if u1 != u2:
        assert len(collisions) <= 16
    else:
        assert len(collisions) == len(primes)
