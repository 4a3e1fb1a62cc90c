import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from richowner.bits import BitString
from richowner.oracles import (
    ComplexityProfile,
    CorrelationSet,
    CountingOracle,
    SUBSETS,
    ToyMachineConfig,
    ToyOracle,
)
from richowner.scenarios import named_correlation_set

from helpers import (
    brute_force_toy_table,
    bs,
    chain_rule_slack,
    collinear_counts,
    profile_conditional,
    profile_value,
    run_toy_program,
)


# -- independent reference interpreter (recursive-parse style) -------------------

def reference_run(bits: str, side, budget: int):
    """Second interpreter over the same instruction stream, written against
    the documented format rather than sharing any code with the package."""
    pos = 0
    components = []
    current = ""
    steps = 0

    def read(k):
        nonlocal pos
        if len(bits) - pos < k:
            raise IndexError
        out = bits[pos:pos + k]
        pos += k
        return out

    side_strs = [s.bits() for s in side]
    try:
        while pos < len(bits):
            op = read(2)
            steps += 1
            if op == "00":
                ln = int(read(4), 2)
                current += read(ln)
                steps += ln
            elif op == "01":
                steps += len(current)
                current = current + current
            elif op == "10":
                idx = int(read(4), 2)
                pool = side_strs + components
                if idx >= len(pool):
                    return None
                current += pool[idx]
                steps += len(pool[idx])
            else:
                components.append(current)
                current = ""
            if steps > budget:
                return None
    except IndexError:
        return None
    components.append(current)
    return tuple(components)


def reference_string_set(width, cfg, side=()):
    found = {}
    for length in range(cfg.max_len + 1):
        for program in range(1 << length):
            bits = format(program, f"0{length}b") if length else ""
            out = reference_run(bits, side, cfg.step_budget)
            if out is not None and len(out) == 1 and len(out[0]) == width:
                key = bs(out[0])
                if key not in found:
                    found[key] = length
    return found


def reference_candidates(found, bound):
    """What `candidates` must return at `bound` for the reference strings
    `found`: those of program length <= bound, by (length, value), capped
    at 2^(bound+1)."""
    items = sorted((c, x.value) for x, c in found.items() if c <= bound)
    return [v for _, v in items[: 1 << (bound + 1)]]


class TestToyMachine:
    def test_literal_upper_bound(self):
        cfg = ToyMachineConfig(max_len=14, step_budget=100)
        for x in (bs("1"), bs("0110"), bs("10110100")):
            c = ToyOracle(cfg).complexity(x)
            assert c is not None and c <= x.width + 6

    def test_repeat_beats_literal_on_32_zeros(self):
        cfg = ToyMachineConfig(max_len=17, step_budget=100)
        c = ToyOracle(cfg).complexity(BitString(32, 0))
        assert c is not None and c < 32 + 6

    def test_copy_program_for_conditional(self):
        cfg = ToyMachineConfig(max_len=12, step_budget=100)
        x = bs("10110100")
        assert ToyOracle(cfg).complexity(x, x) == 6  # opcode + index nibble

    def test_exceeds_budget_marker(self):
        cfg = ToyMachineConfig(max_len=8, step_budget=100)
        assert ToyOracle(cfg).complexity(bs("10110100")) is None

    def test_step_budget_abandons(self):
        # doubling beyond the step budget must not produce an output
        cfg_tight = ToyMachineConfig(max_len=20, step_budget=10)
        cfg_loose = ToyMachineConfig(max_len=20, step_budget=2000)
        x = BitString(32, 0)
        assert ToyOracle(cfg_tight).complexity(x) is None
        assert ToyOracle(cfg_loose).complexity(x) is not None

    def test_antitone_in_budgets(self):
        x = BitString(16, 0)
        base = ToyOracle(ToyMachineConfig(max_len=16, step_budget=200)).complexity(x)
        assert base is not None
        for L, T in ((17, 200), (16, 400), (20, 1000)):
            c = ToyOracle(ToyMachineConfig(max_len=L, step_budget=T)).complexity(x)
            assert c is not None and c <= base

    def test_matches_reference_interpreter(self):
        # Spec-scale cross-check: L=10, T=100, bounds 0..6 over widths 0..6.
        # Each string enters the candidates at the bound of its program
        # length, so the sweep also checks every length up to 6.
        cfg = ToyMachineConfig(max_len=10, step_budget=100)
        oracle = ToyOracle(cfg)
        for width in range(7):
            found = reference_string_set(width, cfg)
            for bound in range(7):
                ours = oracle.candidates(width, 0, {}, [], bound).tolist()
                assert ours == reference_candidates(found, bound)

    def test_matches_reference_with_side_input(self):
        cfg = ToyMachineConfig(max_len=10, step_budget=100)
        oracle = ToyOracle(cfg)
        side = bs("0110")
        found = reference_string_set(4, cfg, (side,))
        for bound in range(cfg.max_len + 1):
            ours = oracle.candidates(4, 0, {1: side}, [], bound).tolist()
            assert ours == reference_candidates(found, bound)

    def test_run_program_multi_component(self):
        # LIT(1,'1') END LIT(1,'0') -> ("1", "0")
        bits = "00" + "0001" + "1" + "11" + "00" + "0001" + "0"
        program = int(bits, 2)
        out = run_toy_program(program, len(bits), (), 100)
        assert out == ((1, 1), (1, 0))


def _side_component():
    return st.integers(0, 10).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1)))


@settings(max_examples=60, deadline=None)
@given(side=st.lists(_side_component(), max_size=4).map(tuple),
       max_len=st.integers(0, 12),
       step_budget=st.one_of(st.integers(0, 24), st.integers(25, 400)))
# more side components than the CONCAT index nibble can reach
@example(side=tuple((5, v) for v in range(17)), max_len=8, step_budget=50)
def test_output_table_matches_brute_force(side, max_len, step_budget):
    """The depth-first table has the keys and lengths of the table built by
    running every bit string as a program; tight step budgets make the walk
    prune prefixes."""
    oracle = ToyOracle(ToyMachineConfig(max_len, step_budget))
    assert oracle.output_table(side) == brute_force_toy_table(side, max_len, step_budget)


@settings(max_examples=40, deadline=None)
@given(side=st.lists(_side_component(), max_size=3),
       max_len=st.integers(0, 12),
       step_budget=st.one_of(st.integers(0, 24), st.integers(25, 400)),
       width=st.integers(0, 10), bound=st.integers(-1, 14))
def test_candidates_within_program_count(side, max_len, step_budget, width, bound):
    """At most 2^(bound+1) - 1 programs are bound bits long or shorter, and
    each prints one string, so no more candidates are listed: the paper's
    enumeration bound, which candidates does not enforce by a cap."""
    oracle = ToyOracle(ToyMachineConfig(max_len, step_budget))
    known = {i: BitString(w, v) for i, (w, v) in enumerate(side)}
    assert len(oracle.candidates(width, 0, known, [], bound)) <= (1 << (bound + 1)) - 1


class TestToyProfilesAndSets:
    def test_profile_censoring(self):
        cfg = ToyMachineConfig(max_len=12, step_budget=200)
        oracle = ToyOracle(cfg)
        x = BitString(8, 0b10101010)
        profile = oracle.profile((x, x, x))
        assert profile_value(profile, (0,)) == 12
        assert profile_value(profile, (0, 1)) == 13  # beyond budget, reported at floor

    def test_enumerate_bound_zero(self):
        cfg = ToyMachineConfig(max_len=10, step_budget=100)
        items = ToyOracle(cfg).candidates(0, 0, {}, [], 0)
        assert items.tolist() == [0]  # empty program prints ""

    def test_enumerate_cardinality_bound(self):
        cfg = ToyMachineConfig(max_len=12, step_budget=200)
        oracle = ToyOracle(cfg)
        for bound in (6, 8, 10, 12):
            items = oracle.candidates(4, 0, {}, [], bound)
            assert len(items) <= (1 << (bound + 1))

    def test_enumerate_negative_bound(self):
        cfg = ToyMachineConfig(max_len=10, step_budget=100)
        items = ToyOracle(cfg).candidates(4, 0, {}, [], -1)
        assert items.dtype == np.int64 and items.tolist() == []

    def test_enumerate_matches_output_table(self):
        cfg = ToyMachineConfig(max_len=12, step_budget=200)
        oracle = ToyOracle(cfg)
        items = oracle.candidates(8, 0, {}, [], 12)
        assert set(items.tolist()) == {
            out[0][1] for out in oracle.output_table(()) if len(out) == 1 and out[0][0] == 8}
        assert len(items) == 16  # the half-period strings
        assert items.dtype == np.int64 and not items.flags.writeable  # a view of the cache

    def test_wide_side_components_cannot_help(self):
        cfg = ToyMachineConfig(max_len=12, step_budget=200)
        oracle = ToyOracle(cfg)
        wide = BitString(34, 12345)
        alone = oracle.candidates(8, 0, {}, [], 12)
        assert np.shares_memory(oracle.candidates(8, 0, {0: wide}, [], 12), alone)  # one cache entry


class TestCountingOracle:
    def test_singleton_set_zero_everywhere(self):
        S = CorrelationSet(3, [(1, 2, 3)])
        oracle = CountingOracle(S)
        for V in SUBSETS:
            for W in SUBSETS:
                if set(V) & set(W):
                    continue
                assert profile_conditional(oracle.profile(S.triple_at(0)), V, W) == 0

    def test_full_cube_marginal(self):
        S = named_correlation_set("cube:n=3")
        oracle = CountingOracle(S)
        assert profile_conditional(oracle.profile(), (0,), ()) == 3
        assert oracle.profile().values == (3, 3, 3, 6, 6, 6, 9)

    def test_diagonal_profile(self):
        oracle = CountingOracle(named_correlation_set("diagonal:n=4"))
        assert oracle.profile().values == (4,) * 7

    def test_collinear_fiber(self):
        S = named_correlation_set("collinear:q=2")
        a, b, _ = S.triple_at(0)
        rows = CountingOracle(S).candidates(S.n, 2, {0: a, 1: b}, [], S.n)
        assert len(rows) == collinear_counts(2)["fiber_third"] == 2

    def test_collinear_profile_within_one_bit(self):
        for q in (2, 3):
            oracle = CountingOracle(named_correlation_set(f"collinear:q={q}"))
            target = (2 * q,) * 3 + (4 * q,) * 3 + (5 * q,)
            for got, want in zip(oracle.profile().values, target):
                assert abs(got - want) <= 1

    def test_b_set_gated_by_bound(self):
        S = named_correlation_set("collinear:q=2")
        oracle = CountingOracle(S)
        assert len(oracle.candidates(S.n, 0, {}, [], 3)) == 0  # 2^3 < 16 projections
        full = oracle.candidates(S.n, 0, {}, [], 4)
        assert len(full) == 16

    def test_enumerate_full_cube(self):
        S = named_correlation_set("cube:n=3")
        items = CountingOracle(S).candidates(S.n, 0, {}, [], 3)
        assert items.tolist() == list(range(8))  # the whole fiber


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_members_match_row_unique(data):
    # Rows drawn from a small pool, so duplicates are common.
    n = data.draw(st.integers(1, 21))
    value = st.integers(0, (1 << n) - 1)
    pool = data.draw(st.lists(st.tuples(value, value, value), min_size=1, max_size=8))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    S = CorrelationSet(n, rows)
    ref = np.unique(np.array(rows, dtype=np.int64), axis=0)
    assert S.members.dtype == ref.dtype and np.array_equal(S.members, ref)
    assert len(S) == len(set(rows))
    assert all(S.contains(r) for r in rows)


class TestChainRule:
    def test_counting_oracle_exact(self):
        for spec in ("collinear:q=2", "diagonal:n=5", "cube:n=2"):
            S = named_correlation_set(spec)
            oracle = CountingOracle(S)
            assert chain_rule_slack(oracle, S.triple_at(0)) == 0

    def test_toy_pair_slack(self):
        cfg = ToyMachineConfig(max_len=20, step_budget=400)
        oracle = ToyOracle(cfg)
        x = bs("01100110")
        # C(x,x) is within copy-program overhead of C(x) + C(x|x)
        cxx = oracle.complexity((x, x))
        cx = oracle.complexity(x)
        cx_given = oracle.complexity(x, side=x)
        assert cxx is not None and cxx <= cx + cx_given + 2

    def test_toy_slack_within_budget_on_plant_corpus(self):
        cfg = ToyMachineConfig(max_len=12, step_budget=200)
        oracle = ToyOracle(cfg)
        budget = 4 * int(math.log2(8))
        halves = (0b0000, 0b1010, 0b0110, 0b1111)
        for w in halves:
            for v in halves:
                x = BitString(8, (w << 4) | w)
                y = BitString(8, (v << 4) | v)
                for triple in ((x, x, y), (x, y, y), (x, x, x)):
                    assert chain_rule_slack(oracle, triple) <= budget


class TestCorrelationSet:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# demo\n01 02 03\n0a 0b 0c\n")
        S = named_correlation_set(f"file:path={path},n=4")
        assert len(S) == 2
        assert S.contains((1, 2, 3))
        assert not S.contains((1, 2, 4))

    def test_file_spec_forms(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("01 02 03\n0a 0b 0c\n")
        inferred = named_correlation_set(f"file:{path}")
        assert inferred.n == 4 and len(inferred) == 2  # widest value 0xc
        explicit = named_correlation_set(f"file:path={path},n=8")
        assert explicit.n == 8 and explicit.contains((10, 11, 12))
        assert named_correlation_set(f"file:path={path}").n == 4

    def test_width_beyond_int64_packing_rejected(self):
        top = (1 << 24) - 1
        with pytest.raises(ValueError, match="n=24"):
            CorrelationSet(24, [(top, top, top), (0, 1, 2)])

    def test_widest_packable_member_found(self):
        top = (1 << 21) - 1
        S = CorrelationSet(21, [(top, top, top), (0, 1, 2), (top, 0, top)])
        assert S.contains((top, top, top))
        assert S.contains((top, 0, top))
        assert not S.contains((top, top, top - 1))

    def test_contains_rejects_out_of_range_aliases(self):
        # Packed fields would overlap: (0, 4, 0) and (0, 0, 16) pack like (1, 0, 0).
        S = CorrelationSet(2, [[1, 0, 0]])
        assert S.contains((1, 0, 0))
        assert not S.contains((0, 4, 0))
        assert not S.contains((0, 0, 16))
        assert not S.contains((1, 0, -1))
        assert not S.contains((BitString(3, 1), BitString(2, 0), BitString(2, 0)))

    def test_members_deduplicated_and_sorted(self):
        S = CorrelationSet(2, [(1, 1, 1), (0, 1, 2), (1, 1, 1)])
        assert len(S) == 2
        assert S.triple_at(0) == (BitString(2, 0), BitString(2, 1), BitString(2, 2))

    def test_profile_requires_membership(self):
        S = CorrelationSet(2, [(1, 1, 1)])
        oracle = CountingOracle(S)
        with pytest.raises(ValueError):
            oracle.profile((BitString(2, 0), BitString(2, 0), BitString(2, 0)))

    def test_profile_of_helper(self):
        S = named_correlation_set("diagonal:n=3")
        assert CountingOracle(S).profile(None).values == (3,) * 7


class TestProfileType:
    def test_conditionals_by_subtraction(self):
        profile = ComplexityProfile((4, 4, 4, 8, 8, 8, 9))
        assert profile_conditional(profile, (2,), (0, 1)) == 1
        assert profile_conditional(profile, (0, 1), (2,)) == 5
        assert profile_conditional(profile, (0,), ()) == 4

    def test_monotone_and_subadditive_for_counting(self):
        oracle = CountingOracle(named_correlation_set("collinear:q=2"))
        p = oracle.profile()
        for V in SUBSETS:
            for W in SUBSETS:
                union = tuple(sorted(set(V) | set(W)))
                assert profile_value(p, union) >= profile_value(p, V)  # monotone
                if not set(V) & set(W):
                    assert profile_value(p, union) <= profile_value(p, V) + profile_value(p, W)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_contains_matches_python_set(data):
    n = data.draw(st.integers(1, 21), label="n")
    top = 1 << n
    coord = st.integers(0, top - 1)
    members = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=12),
                        label="members")
    S = CorrelationSet(n, members)
    reference = set(members)
    wide = st.integers(-2 * top, 4 * top)
    probes = data.draw(st.lists(st.tuples(wide, wide, wide), max_size=12), label="probes")
    for a, b, c in members:
        probes.append((a, b, c))
        # the same packed value with one field carried into the next
        probes.append((a - 1, b + top, c))
        probes.append((a, b - 1, c + top))
    for probe in probes:
        assert S.contains(probe) == (probe in reference)
    for a, b, c in members:
        assert S.contains((BitString(n, a), BitString(n, b), BitString(n, c)))
        assert not S.contains((BitString(n, a), BitString(n + 1, b), BitString(n, c)))
