import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from richowner import scenarios
from richowner.bits import BitString
from richowner.oracles import SUBSETS, ComplexityProfile, CountingOracle
from richowner.protocol import check_rate_feasibility
from richowner.scenarios import (
    IRREDUCIBLE,
    SourceDistribution,
    collinear_members,
    entropy_profile,
    mul_table,
    named_correlation_set,
)
from richowner.rng import SeedStream
from richowner.specs import ConfigError

from helpers import (
    FieldElement,
    collinear_counts,
    converse_bound_check,
    gf_mul,
    int_to_point,
    is_collinear,
    loop_collinear_members,
    point_to_int,
    sample_collinear_triple,
)


class TestField:
    def test_multiplicative_identity(self):
        for q in (2, 3, 4):
            one = FieldElement(q, 1)
            for v in range(1 << q):
                assert gf_mul(one, FieldElement(q, v)).value == v

    def test_examples(self):
        assert gf_mul(FieldElement(2, 2), FieldElement(2, 2)).value == 3
        assert gf_mul(FieldElement(3, 2), FieldElement(3, 4)).value == 3

    def test_mixed_fields_rejected(self):
        with pytest.raises(Exception):
            gf_mul(FieldElement(2, 1), FieldElement(3, 1))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_field_axioms_exhaustive(self, q):
        Q = 1 << q
        els = [FieldElement(q, v) for v in range(Q)]
        for a in els:
            for b in els:
                assert gf_mul(a, b).value == gf_mul(b, a).value
                for c in els:
                    assert (gf_mul(gf_mul(a, b), c).value
                            == gf_mul(a, gf_mul(b, c)).value)
                    assert (gf_mul(a, b + c).value
                            == (gf_mul(a, b) + gf_mul(a, c)).value)
        for a in els[1:]:
            inverses = [b for b in els if gf_mul(a, b).value == 1]
            assert len(inverses) == 1

    @pytest.mark.parametrize("q", sorted(IRREDUCIBLE))
    def test_mul_table_matches_scalar_reference(self, q):
        Q = 1 << q
        reference = [[gf_mul(FieldElement(q, i), FieldElement(q, j)).value for j in range(Q)]
                     for i in range(Q)]
        assert mul_table(q).tolist() == reference

    def test_mul_table_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="no fixed irreducible polynomial for q=5"):
            mul_table(5)


class TestCollinear:
    def test_sampled_triples_pass_determinant(self):
        for seed in range(200):
            a, b, c = sample_collinear_triple(3, seed)
            assert is_collinear(a, b, c)
            assert len({point_to_int(p) for p in (a, b, c)}) == 3

    def test_line_y_equals_x(self):
        pts = [(FieldElement(2, v), FieldElement(2, v)) for v in (0, 1, 2)]
        assert is_collinear(*pts)

    def test_counts_by_formula_and_brute_force(self):
        members = collinear_members(2)
        assert len(members) == 480 == collinear_counts(2)["total"]
        brute = set()
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    if len({a, b, c}) != 3:
                        continue
                    if is_collinear(int_to_point(a, 2), int_to_point(b, 2),
                                    int_to_point(c, 2)):
                        brute.add((a, b, c))
        assert brute == {tuple(row) for row in members.tolist()}

    def test_q3_count_formula(self):
        assert len(collinear_members(3)) == collinear_counts(3)["total"] == 24192

    @pytest.mark.parametrize("q", [2, 3])
    def test_members_match_loop_reference(self, q):
        members, reference = collinear_members(q), loop_collinear_members(q)
        assert members.dtype == reference.dtype
        assert np.array_equal(members, reference)

    def test_q4_members_sorted_distinct_and_collinear(self):
        members = collinear_members(4)
        assert len(members) == collinear_counts(4)["total"] == 913_920
        assert members.min() >= 0 and members.max() < 256
        packed = (members[:, 0] << 16) | (members[:, 1] << 8) | members[:, 2]
        assert (np.diff(packed) > 0).all()  # (a, b, c) order, no repeated row
        sample = np.random.default_rng(4).choice(len(members), 300, replace=False)
        for row in members[sample].tolist():
            a, b, c = (int_to_point(v, 4) for v in row)
            assert is_collinear(a, b, c)
            assert len(set(row)) == 3

    def test_sampling_close_to_uniform(self):
        members = {tuple(r) for r in collinear_members(2).tolist()}
        counts = Counter()
        n_samples = 10_000
        for seed in range(n_samples):
            triple = tuple(point_to_int(p) for p in sample_collinear_triple(2, seed))
            counts[triple] += 1
        assert set(counts) <= members
        expected = n_samples / 480
        # aggregate deviation from uniform within 10%, and no member starved
        tv = 0.5 * sum(abs(counts[t] - expected) for t in members) / n_samples
        assert tv <= 0.10
        sigma = math.sqrt(expected)
        for triple in members:
            assert counts[triple] > 0
            assert abs(counts[triple] - expected) <= 5 * sigma

    def test_affine_invariance_of_determinant(self):
        q = 3
        stream = SeedStream(9)
        for _ in range(50):
            a, b, c = sample_collinear_triple(q, stream.next_raw())
            while True:
                m00, m01, m10, m11 = (FieldElement(q, stream.randrange(8))
                                      for _ in range(4))
                det = gf_mul(m00, m11) + gf_mul(m01, m10)
                if det.value != 0:
                    break
            t0, t1 = FieldElement(q, stream.randrange(8)), FieldElement(q, stream.randrange(8))

            def apply(p):
                return (gf_mul(m00, p[0]) + gf_mul(m01, p[1]) + t0,
                        gf_mul(m10, p[0]) + gf_mul(m11, p[1]) + t1)

            assert is_collinear(apply(a), apply(b), apply(c))


class TestNamedSets:
    def test_refuses_a_wide_set_before_building_it(self):
        # diagonal:n=22 would hold 2^22 rows of three int64s (96 MB).
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"'diagonal:n=22': width n=22 outside 1\.\.21"):
                named_correlation_set("diagonal:n=22")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("spec", ["collinear:q=2", "collinear:q=3", "diagonal:n=5",
                                      "cube:n=2"])
    def test_member_cap_counts_the_rows_it_would_build(self, spec, monkeypatch):
        rows = len(named_correlation_set(spec))
        monkeypatch.setattr(scenarios, "MAX_MEMBERS", rows)
        assert len(named_correlation_set(spec)) == rows
        monkeypatch.setattr(scenarios, "MAX_MEMBERS", rows - 1)
        with pytest.raises(ConfigError, match=f"{rows} members exceed the cap of {rows - 1} "):
            named_correlation_set(spec)


class TestDms:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            SourceDistribution((Fraction(1, 2),) + (Fraction(0),) * 7)


class TestEntropyProfile:
    def test_perfect_correlation_profile(self):
        dist = SourceDistribution((Fraction(1, 2),) + (Fraction(0),) * 6 + (Fraction(1, 2),))
        n = 7
        values = entropy_profile(dist, n)
        assert values == (n,) * 7
        # H(A | BC) = H(ABC) - H(BC) = 0
        assert values[6] - values[5] == 0

    def test_uniform_cube(self):
        dist = SourceDistribution(tuple([Fraction(1, 8)] * 8))
        values = entropy_profile(dist, 5)
        assert values[0] == values[1] == values[2] == 5
        assert values[6] == 15

    def test_against_direct_summation(self):
        # outcomes 000, 011 and 101, indexed by 4a + 2b + c
        half, quarter, zero = Fraction(1, 2), Fraction(1, 4), Fraction(0)
        dist = SourceDistribution((half, zero, zero, quarter, zero, quarter, zero, zero))
        values = entropy_profile(dist, 1)

        def direct(coords):
            marg = Counter()
            for idx, p in enumerate(dist.probs):
                if p:
                    bits = tuple((idx >> (2 - i)) & 1 for i in coords)
                    marg[bits] += p
            return -sum(float(p) * math.log2(float(p)) for p in marg.values())

        for coords, got in zip(SUBSETS, values):
            assert abs(got - direct(coords)) < 1e-9

    def test_uniform_on_correlation_set_matches_projection_counts(self):
        # For homogeneous sets (all fibers equal), per-draw subset entropy of
        # the uniform member distribution equals log2 of projection counts.
        for spec in ("collinear:q=2", "diagonal:n=2", "cube:n=1"):
            S = named_correlation_set(spec)
            members = S.members
            total = len(members)
            for coords in SUBSETS:
                proj = Counter(tuple(row[list(coords)]) for row in members)
                h = -sum((c / total) * math.log2(c / total) for c in proj.values())
                if len(set(proj.values())) == 1:
                    assert abs(h - math.log2(len(proj))) < 1e-9


class TestRateRegion:
    def profile(self, q=2):
        return CountingOracle(named_correlation_set(f"collinear:q={q}")).profile()

    def test_examples(self):
        profile = self.profile()
        assert check_rate_feasibility(profile, (4, 4, 2), 0) == []
        violated = check_rate_feasibility(profile, (2, 2, 2), 0)
        assert (0, 1, 2) in violated
        violated = check_rate_feasibility(profile, (10, 0, 0), 0)
        assert set(violated) == {(1,), (2,), (1, 2)}

    def test_monotone_in_rates(self):
        profile = self.profile()
        stream = SeedStream(5)
        for _ in range(300):
            rates = [stream.randrange(11) for _ in range(3)]
            if not check_rate_feasibility(profile, rates, 0):
                for i in range(3):
                    bumped = list(rates)
                    bumped[i] += 1
                    assert not check_rate_feasibility(profile, bumped, 0)

    def test_accepts_plain_tuples(self):
        profile = ComplexityProfile((1, 1, 1, 2, 2, 2, 3))
        assert check_rate_feasibility(profile, (1, 1, 1), 0) == []


class TestConverse:
    def test_short_codes_yield_witness(self):
        # 8 strings into 2-bit codewords: any claimed lossless scheme fails
        # and the audit produces a collision pair.
        encoder = {x: BitString(2, x % 4) for x in range(8)}
        decoder = {BitString(2, v): v for v in range(4)}
        verdict = converse_bound_check([encoder], decoder, k=3, epsilon=Fraction(0))
        assert not verdict.passed
        assert verdict.witness is not None
        a, b = verdict.witness
        assert encoder[a] == encoder[b] and a != b

    def test_injective_codes_pass(self):
        encoder = {x: BitString(3, x) for x in range(8)}
        decoder = {BitString(3, x): x for x in range(8)}
        verdict = converse_bound_check([encoder], decoder, k=3, epsilon=Fraction(0))
        assert verdict.passed and verdict.success_rate == 1

    def test_randomized_verdict_equals_recount(self):
        M, coins = 64, 4
        stream = SeedStream(77)
        tables = []
        for _ in range(coins):
            tables.append({x: BitString(6, stream.randrange(64)) for x in range(M)})
        decoder = {BitString(6, v): stream.randrange(M) for v in range(64)}
        epsilon = Fraction(1, 4)
        verdict = converse_bound_check(tables, decoder, k=6, epsilon=epsilon)
        best = max(
            sum(1 for x in range(M) if decoder.get(tables[c][x]) == x) / M
            for c in range(coins)
        )
        assert verdict.passed == (best >= 1 - epsilon)
        assert float(verdict.success_rate) == best
