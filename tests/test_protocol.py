import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from richowner import experiments, protocol
from richowner.bits import BitString
from richowner.construction import construct_rich_owner_graph
from richowner.crt import HashScheme, HashTag, primes_first
from richowner.graphs import LabeledBipartiteGraph, SeededGraph, SplitGraph, TableGraph
from richowner.oracles import (
    COMPLEMENTS,
    SUBSETS,
    ComplexityProfile,
    CorrelationSet,
    CountingOracle,
    ToyMachineConfig,
    ToyOracle,
)
from richowner.protocol import (
    Codeword,
    InfeasibleRatesError,
    RateVector,
    check_rate_feasibility,
    conditional_profile,
    decode_full,
    decode_known_profile,
    decode_membership,
    encode,
    rates_from_profile,
    rates_violating_total,
)
from richowner.protocol import (
    _CATALOG,
    _recover,
    _representative_profiles,
    _run_branch,
    _stage_bounds,
    _tags_match,
)
from richowner.rng import SeedStream, derive_seed
from richowner.scenarios import named_correlation_set
from richowner.specs import ConfigError

from helpers import (
    all_to_one_graph,
    brute_force_toy_table,
    bs,
    matrix_pick,
    neighbor_values,
    payload_consistent,
    profile_conditional,
    profile_value,
    twelve_branch_outcomes,
)

SCHEME4 = HashScheme(4, 3, Fraction(1, 16))


@pytest.fixture(scope="module")
def q2_graphs():
    S = named_correlation_set("collinear:q=2")
    oracle = CountingOracle(S)
    rates = rates_from_profile(conditional_profile(oracle, None), slack=2, cap=4)
    graphs = [
        construct_rich_owner_graph(4, max(1, min(r, 4)), Fraction(1, 2),
                                   seed=derive_seed(41, i))[0]
        for i, r in enumerate(rates)
    ]
    return S, oracle, rates, graphs


class TestEncode:
    def test_degree_one_payload_independent_of_seed(self):
        g = SeededGraph(4, 3, 0, seed=9)
        x = bs("1011")
        payloads = {encode(g, x, None, seed).payload for seed in range(10)}
        assert len(payloads) == 1

    def test_payload_width_always_m(self, q2_graphs):
        _, _, _, graphs = q2_graphs
        for g in graphs:
            for value in range(16):
                cw = encode(g, BitString(4, value), SCHEME4, seed=value)
                assert cw.payload.width == g.m

    def test_seeded_replay(self, q2_graphs):
        _, _, _, graphs = q2_graphs
        a = encode(graphs[0], bs("0110"), SCHEME4, seed=123, sender="A")
        b = encode(graphs[0], bs("0110"), SCHEME4, seed=123, sender="A")
        assert a == b

    def test_width_mismatch_rejected(self, q2_graphs):
        _, _, _, graphs = q2_graphs
        with pytest.raises(Exception):
            encode(graphs[0], bs("01100"), SCHEME4, seed=1)

    def test_tag_verifies_against_source(self, q2_graphs):
        _, _, _, graphs = q2_graphs
        x = bs("0111")
        cw = encode(graphs[0], x, SCHEME4, seed=5)
        assert cw.tag.matches(x.value)

    def test_codeword_json_round_trip(self, q2_graphs):
        _, _, _, graphs = q2_graphs
        cw = encode(graphs[1], bs("1100"), SCHEME4, seed=8, sender="B")
        obj = cw.to_json()
        assert set(obj) == {"sender", "payload_hex", "payload_bits", "tag"}
        assert Codeword.from_json(obj) == cw


class TestRates:
    def test_chain_rates_cover_all_subsets(self):
        oracle = CountingOracle(named_correlation_set("collinear:q=3"))
        profile = oracle.profile()
        rates = rates_from_profile(conditional_profile(oracle, None), slack=2)
        assert check_rate_feasibility(profile, rates, 0) == []

    def test_counting_conditionals_use_one_profile(self):
        oracle = CountingOracle(named_correlation_set("collinear:q=2"))
        calls = []
        profile = oracle.profile
        oracle.profile = lambda triple=None: calls.append(triple) or profile(triple)
        triple = oracle.S.triple_at(5)
        conds = conditional_profile(oracle, triple)
        assert len(calls) == 1
        p = profile()
        for V in SUBSETS:
            complement = tuple(i for i in range(3) if i not in V)
            assert conds[V] == profile_conditional(p, V, complement)

    def test_cap_applied(self):
        conds = {(0,): 10, (1,): 10, (2,): 10, (0, 1): 20, (0, 2): 20,
                 (1, 2): 20, (0, 1, 2): 25}
        rates = rates_from_profile(conds, slack=2, cap=8)
        assert max(rates) <= 8

    def test_violating_rates_balanced(self):
        oracle = CountingOracle(named_correlation_set("collinear:q=3"))
        conds = conditional_profile(oracle, None)
        rates = rates_violating_total(conds, 3)
        assert sum(rates) == conds[(0, 1, 2)] - 3
        assert max(rates) - min(rates) <= 1

    @given(st.lists(st.integers(0, 12), min_size=7, max_size=7))
    def test_profile_conditionals_by_index(self, values):
        profile = ComplexityProfile(tuple(values))
        full = (0, 1, 2)
        assert profile.conditionals() == {
            V: profile_conditional(profile, V, tuple(i for i in full if i not in V))
            for V in SUBSETS}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 15)), min_size=3, max_size=3)
           .map(lambda cs: tuple(BitString(w, v % (1 << w)) for w, v in cs)),
           st.integers(0, 8), st.integers(0, 40))
    @example(triple=(bs("0101"), bs("0101"), bs("0011")), max_len=8, step_budget=40)
    @example(triple=(bs("0101"), bs("0101"), bs("0011")), max_len=10, step_budget=60)
    def test_toy_conditionals_measured_directly(self, triple, max_len, step_budget):
        """Each conditional is the brute-force machine's shortest program
        printing the V strings given the complement strings as side input,
        or the floor L + 1 beyond the budgets: at L = 8 the first example
        has C(A | B, C) = 6 and C(C | A, B) at the floor 9."""
        oracle = ToyOracle(ToyMachineConfig(max_len, step_budget))
        want = {}
        for V, W in zip(SUBSETS, COMPLEMENTS):
            side = tuple((triple[i].width, triple[i].value) for i in W)
            target = tuple((triple[i].width, triple[i].value) for i in V)
            table = brute_force_toy_table(side, max_len, step_budget)
            want[V] = table.get(target, max_len + 1)
        assert oracle.conditionals(triple) == want
        assert oracle.conditionals(triple, oracle.profile(triple)) == want
        assert conditional_profile(oracle, triple) == want


def _plan_bounds(profile, rates, slack):
    """Each catalog branch's stage bounds under one profile's plan, by name:
    a plan's signature is its opener bounds C(t) + slack, t = A, B, C."""
    return {name: _stage_bounds(idx, None if lead is None else profile.values[lead] + slack,
                                rates, slack)
            for idx, (name, lead, _) in enumerate(_CATALOG)}


# Each lead's bound as the decoder derives it: C(t) + slack for the three
# chain openers.
LEAD_FORMULAS = {
    0: lambda p, r, s: profile_value(p, (0,)) + s,
    1: lambda p, r, s: profile_value(p, (1,)) + s,
    2: lambda p, r, s: profile_value(p, (2,)) + s,
}


class TestDerivePlan:
    def test_diagonal_rates_n00_later_stages_slack_bounded(self):
        n = 5
        profile = ComplexityProfile((n,) * 7)
        chain = _plan_bounds(profile, RateVector(n, 0, 0), slack=2)["chain-ABC"]
        assert chain[1] == 0 + 2
        assert chain[2] == 0 + 2

    def test_collinear_q3_bounds_match_hand_arithmetic(self):
        q = 3
        oracle = CountingOracle(named_correlation_set(f"collinear:q={q}"))
        profile = oracle.profile()
        rates = RateVector(2 * q, 2 * q, q + 2)
        slack = 2
        bounds = _plan_bounds(profile, rates, slack)
        # independently expanded expectations
        c_a = profile_value(profile, (0,))
        assert bounds["chain-ABC"] == (c_a + slack, rates.n_b + slack, rates.n_c + slack)
        assert bounds["joint-BC"][0] == rates.n_b + slack

    def test_eq2_violation_rejected_with_subset(self):
        profile = ComplexityProfile((4, 4, 4, 8, 8, 8, 9))
        with pytest.raises(InfeasibleRatesError) as exc:
            # rejected before any codeword, oracle or graph is looked at
            decode_known_profile([], profile, RateVector(2, 2, 2), None, [], slack=0)
        assert (0, 1, 2) in exc.value.violated

    @given(st.lists(st.integers(0, 9), min_size=7, max_size=7),
           st.tuples(*[st.integers(0, 9)] * 3), st.integers(-2, 3))
    def test_bounds_respect_formula_plus_slack(self, values, rates, slack):
        # a branch's first stage takes its lead's formula, every other
        # stage its target's rate plus slack, each clamped at 0
        profile, rates = ComplexityProfile(tuple(values)), RateVector(*rates)
        bounds = _plan_bounds(profile, rates, slack)
        for name, lead, stages in _CATALOG:
            want = [rates[t] + slack for t, _, _ in stages]
            if lead is not None:
                want[0] = LEAD_FORMULAS[lead](profile, rates, slack)
            assert bounds[name] == tuple(max(b, 0) for b in want)


def _encode_triple(triple, graphs, scheme, seed):
    return [
        encode(graphs[i], triple[i], scheme, derive_seed(seed, "enc", i), "ABC"[i])
        for i in range(3)
    ]


class TestDecodeKnownProfile:
    def test_singleton_candidate_sets(self):
        S = CorrelationSet(4, [(3, 5, 9)])
        oracle = CountingOracle(S)
        triple = S.triple_at(0)
        graphs = [SeededGraph(4, 4, 2, seed=i) for i in range(3)]
        rates = RateVector(1, 1, 1)
        cws = _encode_triple(triple, graphs, SCHEME4, seed=7)
        result = decode_known_profile(cws, oracle.profile(), rates, oracle, graphs)
        assert result.ok and result.triple == triple

    def test_counting_oracle_collinear_trials(self, q2_graphs):
        S, oracle, rates, graphs = q2_graphs
        profile = oracle.profile()
        wins = 0
        for t in range(25):
            seed = derive_seed(100, t)
            triple = S.triple_at(SeedStream(seed).randrange(len(S)))
            cws = _encode_triple(triple, graphs, SCHEME4, seed)
            result = decode_known_profile(cws, profile, rates, oracle, graphs)
            wins += bool(result.ok and result.triple == triple)
        assert wins >= 23

    def test_shared_payload_fails_ownership_not_tags(self):
        # all-to-one graph: every candidate owns every payload, so ownership
        # is never unique and the decoder must fail rather than guess.
        S = CorrelationSet(3, [(1, 2, 3), (5, 2, 3)])
        oracle = CountingOracle(S)
        graphs = [all_to_one_graph(3, 3, 2) for _ in range(3)]
        triple = S.triple_at(0)
        scheme = HashScheme(3, 3, Fraction(1, 8))
        cws = _encode_triple(triple, graphs, scheme, seed=3)
        result = decode_known_profile(
            cws, oracle.profile(), RateVector(3, 3, 3), oracle, graphs
        )
        if result.ok:
            assert all(cw.tag.matches(x.value) for cw, x in zip(cws, result.triple))
        else:
            assert result.triple is None

    def test_tampered_tag_never_returns_mismatch(self, q2_graphs):
        S, oracle, rates, graphs = q2_graphs
        profile = oracle.profile()
        for t in range(10):
            seed = derive_seed(55, t)
            triple = S.triple_at(SeedStream(seed).randrange(len(S)))
            cws = _encode_triple(triple, graphs, SCHEME4, seed)
            bad_tag = HashTag(cws[0].tag.prime,
                              (cws[0].tag.residue + 1) % cws[0].tag.prime)
            tampered = [Codeword(cws[0].sender, cws[0].payload, bad_tag),
                        cws[1], cws[2]]
            result = decode_known_profile(tampered, profile, rates, oracle, graphs)
            if result.ok:
                for cw, x in zip(tampered, result.triple):
                    assert cw.tag.matches(x.value)
            else:
                assert result.triple is None

    def test_one_sender_pipeline_suffices_when_marginal_fits(self, q2_graphs):
        S, oracle, rates, graphs = q2_graphs
        profile = oracle.profile()
        # marginal C(A) = 4 <= n_A requires rate 4 on the A lane
        rates = RateVector(4, 4, 4)
        graphs4 = [
            construct_rich_owner_graph(4, 4, Fraction(1, 2), seed=derive_seed(43, i))[0]
            for i in range(3)
        ]
        chain_abc = next(idx for idx, (name, _, _) in enumerate(_CATALOG)
                         if name == "chain-ABC")
        lead_bound = profile.values[0] + 2
        wins = 0
        for t in range(10):
            seed = derive_seed(77, t)
            triple = S.triple_at(SeedStream(seed).randrange(len(S)))
            cws = _encode_triple(triple, graphs4, SCHEME4, seed)
            got, _ = _run_branch(chain_abc, lead_bound, rates, 2, cws, oracle, graphs4, {})
            wins += got == triple
        assert wins >= 9

    def test_deterministic(self, q2_graphs):
        S, oracle, rates, graphs = q2_graphs
        profile = oracle.profile()
        triple = S.triple_at(100)
        cws = _encode_triple(triple, graphs, SCHEME4, seed=5)
        r1 = decode_known_profile(cws, profile, rates, oracle, graphs)
        r2 = decode_known_profile(cws, profile, rates, oracle, graphs)
        assert (r1.status, r1.triple, r1.branch, r1.steps) == \
               (r2.status, r2.triple, r2.branch, r2.steps)


class TestDecodeFull:
    def test_singleton_set_matches_known_profile(self):
        S = CorrelationSet(4, [(3, 5, 9)])
        oracle = CountingOracle(S)
        triple = S.triple_at(0)
        graphs = [SeededGraph(4, 4, 2, seed=i) for i in range(3)]
        rates = RateVector(1, 1, 1)
        cws = _encode_triple(triple, graphs, SCHEME4, seed=7)
        known = decode_known_profile(cws, oracle.profile(), rates, oracle, graphs)
        full = decode_full(cws, rates, oracle, graphs, slack=2)
        assert known.ok and full.ok
        assert full.triple == known.triple == triple

    def test_tampered_tags_fail(self):
        S = CorrelationSet(4, [(3, 5, 9)])
        oracle = CountingOracle(S)
        triple = S.triple_at(0)
        graphs = [SeededGraph(4, 4, 2, seed=i) for i in range(3)]
        cws = _encode_triple(triple, graphs, SCHEME4, seed=7)
        bad = HashTag(cws[2].tag.prime, (cws[2].tag.residue + 1) % cws[2].tag.prime)
        tampered = [cws[0], cws[1], Codeword("C", cws[2].payload, bad)]
        result = decode_full(tampered, RateVector(1, 1, 1), oracle, graphs)
        assert not result.ok


def _reference_profiles(rates, slack, cap):
    """Least admissible profile per plan signature (A, B, C) + slack, by a
    7-deep search.

    Loops run in lexicographic order, so the first admissible profile found
    for an (A, B, C) is its least, and the result is in rank order.
    """
    n_a, n_b, n_c = rates

    def least(a, b, c):
        for ab in range(max(a, b), min(a + b + slack, cap) + 1):
            for ac in range(max(a, c), min(a + c + slack, cap) + 1):
                for bc in range(max(b, c), min(b + c + slack, cap) + 1):
                    top = min(ab + c, ac + b, bc + a) + slack
                    for abc in range(max(ab, ac, bc), min(top, cap) + 1):
                        # sum(rates[V]) >= C(V | complement) - slack for every V
                        if (n_a >= abc - bc - slack and n_b >= abc - ac - slack
                                and n_c >= abc - ab - slack
                                and n_a + n_b >= abc - c - slack
                                and n_a + n_c >= abc - b - slack
                                and n_b + n_c >= abc - a - slack
                                and n_a + n_b + n_c >= abc - slack):
                            return (a, b, c, ab, ac, bc, abc)
        return None

    found = (least(a, b, c) for a, b, c in product(range(cap + 1), repeat=3))
    return [row for row in found if row is not None]


@settings(max_examples=60, deadline=None)
@given(rates=st.tuples(*[st.integers(0, 6)] * 3), slack=st.integers(-3, 3),
       cap=st.integers(-1, 7))
def test_representative_profiles_match_brute_force(rates, slack, cap):
    got = [tuple(row) for row in
           _representative_profiles(RateVector(*rates), slack, cap).tolist()]
    reference = _reference_profiles(rates, slack, cap)
    assert got == [values[:3] for values in reference]
    for values in reference:
        assert check_rate_feasibility(ComplexityProfile(values), rates, slack) == []


@pytest.mark.parametrize("rates, slack, cap", [
    ((3, 1, 2), 120, 3),        # near the top of int8
    ((3, 1, 2), 32_760, 3),     # near the top of int16
    ((0, 0, 0), 40_000, 2),     # past int16
    ((4, 4, 4), -1, 4),
    ((10, 12, 10), -3, 6),
    ((10**20, 1, 2), 1, 3),     # a rate past int64
])
def test_full_plan_table_matches_a_wide_reference(rates, slack, cap):
    # The grid is int64, and array-on-array arithmetic wraps silently: a
    # rate or slack that overflowed it would corrupt bounds.  Rates are
    # clamped before they meet an array; the reference forms every value
    # as a Python int.
    want = [(a + slack, b + slack, c + slack)
            for a, b, c, *_ in _reference_profiles(rates, slack, cap)]
    assert want
    signatures = _representative_profiles(RateVector(*rates), slack, cap) + slack
    assert [tuple(row) for row in signatures.tolist()] == want


@pytest.mark.parametrize("rates, slack, cap, plans", [
    ((10, 10, 10), 4, 12, 2_197),  # toy-full-n8's rate vector
    ((6, 8, 8), 2, 8, 729),
])
def test_plan_table_has_one_plan_per_opener_bounds(rates, slack, cap, plans):
    reference = _reference_profiles(rates, slack, cap)
    assert len({row[:3] for row in reference}) == len(reference) == plans
    assert len(_representative_profiles(RateVector(*rates), slack, cap)) == plans


def test_profile_search_names_a_slack_past_the_grid_cap():
    # The search tests a (cap + 1)^3 grid of opener triples: 64^3 build,
    # 65^3 are refused before any array is built.
    assert len(_representative_profiles(RateVector(1, 1, 1), -2, 63)) == 0
    assert _representative_profiles(RateVector(1, 1, 1), 2, 63).shape[1] == 3
    with pytest.raises(ConfigError, match="^slack -1: .* 65\\^3 opener triples"):
        _representative_profiles(RateVector(1, 1, 1), -1, 64)
    # A negative cap admits no triple; below -65 it is refused as such.
    assert len(_representative_profiles(RateVector(1, 1, 1), -69, -65)) == 0
    with pytest.raises(ConfigError, match="^slack -70: no profile is admissible, as its "
                                          "entries would lie in 0\\.\\.-66$"):
        _representative_profiles(RateVector(1, 1, 1), -70, -66)
    # A full decode searches profiles up to cap = n + slack.
    config = experiments.ExperimentConfig.load(overrides={
        "scenario": "collinear:q=2", "decoder": "full", "rates": "1,1,1",
        "slack": "30000", "trials": "1"}, env={})
    with pytest.raises(ConfigError, match="^slack 30000: "):
        experiments.run_experiment(config)


def _planted_set(n):
    """Every planted triple of width n: two half-period strings shared
    among the coordinates by one of four patterns."""
    half = n // 2
    periodic = [(w << half) | w for w in range(1 << half)]
    patterns = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0))
    return CorrelationSet(n, [tuple((u, v)[i] for i in p)
                              for u, v in product(periodic, repeat=2) for p in patterns])


def _reference_known_profile(cws, profile, rates, oracle, graphs, slack,
                             step_budget=10_000_000):
    """One plan, branch by branch: the tag-matching branch with the fewest
    steps wins, ties to the lowest index, and is dropped above the one-plan
    cap step_budget + 1.  On failure, steps is the winner's when it was
    dropped, else the largest branch's."""
    memo, best, max_steps = {}, None, 0
    for idx, (name, lead, _) in enumerate(_CATALOG):
        lead_bound = None if lead is None else profile.values[lead] + slack
        triple, steps = _run_branch(idx, lead_bound, rates, slack, cws, oracle, graphs, memo)
        max_steps = max(max_steps, steps)
        if triple is not None and _tags_match(cws, triple) and (
                best is None or (steps, idx) < best[:2]):
            best = (steps, idx, name, triple)
    if best is None:
        return ("fail", None, None, max_steps)
    if best[0] > step_budget + 1:
        return ("fail", None, None, best[0])
    return ("ok", best[3], best[2], best[0])


def _plan_by_plan(cws, rates, oracle, graphs, n, slack, step_budget):
    """decode_full's selection rule, one reference known-profile decode per plan."""
    profiles = _reference_profiles(rates, slack, n + slack)
    cap = step_budget // len(profiles) + 1
    best, max_steps = None, 0
    for rank, values in enumerate(profiles):
        status, triple, branch, steps = _reference_known_profile(
            cws, ComplexityProfile(values), rates, oracle, graphs, slack)
        max_steps = max(max_steps, steps)
        if status == "ok" and steps <= cap and (best is None or (steps, rank) < best[:2]):
            best = (steps, rank, triple, branch)
    if best is None:
        return ("fail", None, None, max_steps)
    return ("ok", best[2], best[3], best[0])


@pytest.fixture(scope="module")
def planted():
    S = _planted_set(4)
    return S, CountingOracle(S)


def _planted_cases(S, rate_vectors, tamper=False):
    """Encoded planted triples over width-4 seeded graphs, three per rate
    vector; with `tamper`, one sender's tag residue is shifted by one."""
    k = 0
    for rates in rate_vectors:
        for t in range(3):
            seed = derive_seed(5, t)
            triple = S.triple_at(SeedStream(seed).randrange(len(S)))
            graphs = [SeededGraph(S.n, S.n, 0, seed=derive_seed(seed, "g", i))
                      for i in range(3)]
            cws = _encode_triple(triple, graphs, SCHEME4, seed)
            if tamper:
                cw = cws[k % 3]
                bad = HashTag(cw.tag.prime, (cw.tag.residue + 1) % cw.tag.prime)
                cws[k % 3] = Codeword(cw.sender, cw.payload, bad)
            k += 1
            yield RateVector(*rates), triple, graphs, cws


class TestKnownProfileMatchesReference:
    # rates at and above the planted set's chain rates (2, 2, 2), slack 0
    rate_vectors, slack = ((2, 2, 2), (3, 2, 2), (2, 3, 4)), 0

    def _both(self, cws, rates, oracle, graphs, step_budget=10_000_000):
        profile = oracle.profile()
        got = decode_known_profile(cws, profile, rates, oracle, graphs,
                                   step_budget=step_budget, slack=self.slack)
        want = _reference_known_profile(cws, profile, rates, oracle, graphs,
                                        self.slack, step_budget)
        assert (got.status, got.triple, got.branch, got.steps) == want
        return got

    def test_planted_trials_and_budgets(self, planted):
        S, oracle = planted
        outcomes = set()
        for rates, triple, graphs, cws in _planted_cases(S, self.rate_vectors):
            result = self._both(cws, rates, oracle, graphs)
            outcomes.add(result.branch)
            if not result.ok:
                continue
            # the one-plan cap budget + 1 keeps a winner at the cap and
            # drops it one step below
            at_cap = self._both(cws, rates, oracle, graphs, result.steps - 1)
            assert (at_cap.status, at_cap.steps) == ("ok", result.steps)
            self._both(cws, rates, oracle, graphs, result.steps)
            capped = self._both(cws, rates, oracle, graphs, result.steps - 2)
            assert (capped.status, capped.steps) == ("fail", result.steps)
        assert None in outcomes and len(outcomes) >= 3

    def test_tampered_tags(self, planted):
        S, oracle = planted
        for rates, triple, graphs, cws in _planted_cases(S, self.rate_vectors,
                                                          tamper=True):
            assert not self._both(cws, rates, oracle, graphs).ok


class TestDecodeFullMatchesPlanByPlan:
    n, slack = 4, 0
    rate_vectors = ((2, 2, 2), (1, 4, 1), (2, 3, 1))

    def _cases(self, S, tamper=False):
        return _planted_cases(S, self.rate_vectors, tamper)

    def _both(self, cws, rates, oracle, graphs, step_budget=10_000_000):
        full = decode_full(cws, rates, oracle, graphs, slack=self.slack,
                           step_budget=step_budget)
        want = _plan_by_plan(cws, rates, oracle, graphs, self.n, self.slack, step_budget)
        assert (full.status, full.triple, full.branch, full.steps) == want
        return full

    def test_planted_trials(self, planted):
        S, oracle = planted
        outcomes = set()
        for rates, triple, graphs, cws in self._cases(S):
            full = self._both(cws, rates, oracle, graphs)
            outcomes.add(full.branch)
        # failures, rate-bounded winners and profile-bounded (chain) winners
        assert None in outcomes and "joint-BC" in outcomes
        assert any(b and b.startswith("chain-") for b in outcomes)

    def test_tampered_tags(self, planted):
        S, oracle = planted
        for rates, triple, graphs, cws in self._cases(S, tamper=True):
            assert not self._both(cws, rates, oracle, graphs).ok

    def test_budget_cap_drops_the_winner(self, planted):
        S, oracle = planted
        dropped = 0
        for rates, triple, graphs, cws in self._cases(S):
            full = self._both(cws, rates, oracle, graphs)
            if not full.ok:
                continue
            plans = len(_representative_profiles(rates, self.slack, self.n + self.slack))
            # the per-plan cap budget // plans + 1 keeps a winner at the cap
            # and drops it one step below
            at_cap = self._both(cws, rates, oracle, graphs,
                                step_budget=(full.steps - 1) * plans)
            assert (at_cap.status, at_cap.steps) == ("ok", full.steps)
            capped = self._both(cws, rates, oracle, graphs,
                                step_budget=(full.steps - 2) * plans)
            assert not capped.ok
            dropped += 1
        assert dropped >= 3


# -- per-bound selection against the plan x branch matrices -----------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pick_matches_matrix_rule(data):
    # Steps from a small range tie across ranks and branch indices, a low
    # match rate leaves plans without a match, and a small budget drops
    # winners over the cap; a negative slack gives negative lead bounds.
    plans = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.lists(st.integers(0, 5), min_size=7, max_size=7),
                              min_size=plans, max_size=plans))
    signatures = np.array(rows)[:, :3] + data.draw(st.integers(-2, 3))
    match_rate = data.draw(st.sampled_from([0, 1, 4, 13]))
    most = data.draw(st.sampled_from([1, 4, 12]))
    outcomes, calls = {}, []

    def outcome(idx, bound):
        calls.append((idx, bound))
        if (idx, bound) not in outcomes:
            outcomes[idx, bound] = (data.draw(st.integers(0, 12)) < match_rate,
                                    data.draw(st.integers(0, most)))
        return outcomes[idx, bound]

    budget = data.draw(st.integers(0, 3 * plans))
    got = protocol._pick(signatures, outcome, budget)
    assert len(calls) == len(set(calls))  # one run per branch and distinct bound
    want = matrix_pick(signatures, outcome, budget)
    assert got == want
    if got[0] is None:
        event("fail, no match" if not any(m for m, _ in outcomes.values())
              else "fail, winners over the cap")
    else:
        event("ok, winner at rank > 0" if got[0] else "ok, winner at rank 0")


def test_plan_search_memory_stays_small():
    """Traced peak of one toy-full-n8 decode (pool seed 10, first trial)
    with cold toy tables, its plans for rates (10, 10, 10), slack 4, cap 12
    included.  It was 15.2 MB while profile search filtered the whole 13^5
    grid and selection built plans x branches matrices, 4.5 MB with sliced
    filtering and per-bound selection, and is 0.4 MB with the closed-form
    search (numpy 2.4.6)."""
    config = experiments.ExperimentConfig(
        scenario="planted:n=8", oracle="toy:L=12,T=200", decoder="full",
        graphs="pipeline:delta=1/2", rates="profile+4", slack=4, seed=10)
    scenario = experiments._resolve_scenario(config.scenario)
    oracle = experiments._resolve_oracle(config.oracle, scenario)
    bank = experiments._GraphBank(config.graphs, scenario.n, config.seed,
                                  config.max_retries)
    scheme = HashScheme(scenario.n, 3, Fraction(1, scenario.n ** 2))
    seed = derive_seed(config.seed, "trial", 0)
    triple = scenario.triple(seed)
    rates = experiments._resolve_rates(config.rates, oracle, triple, scenario.n, None)
    assert rates == RateVector(10, 10, 10)
    graphs = [bank.for_rate(i, rates[i]) for i in range(3)]
    cws = [encode(g, x, scheme, derive_seed(seed, "enc", i), sender="ABC"[i])
           for i, (g, x) in enumerate(zip(graphs, triple))]
    tracemalloc.start()
    try:
        result = decode_full(cws, rates, oracle, graphs, slack=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok and result.triple == tuple(triple)
    assert peak < 8_000_000


class TestDecodeMembership:
    def test_singleton_unconditional(self):
        S = CorrelationSet(4, [(3, 5, 9)])
        graphs = [all_to_one_graph(4, 2, 1) for _ in range(3)]
        cws = _encode_triple(S.triple_at(0), graphs, None, seed=1)
        result = decode_membership(cws, S, graphs)
        assert result.ok and result.survivors == 1
        assert result.triple == S.triple_at(0)

    def test_two_triples_disjoint_payloads(self):
        S = CorrelationSet(2, [(0, 0, 0), (3, 3, 3)])
        graphs = [
            TableGraph(2, 2, np.arange(4, dtype=np.uint64).reshape(-1, 1))
            for _ in range(3)
        ]
        cws = _encode_triple(S.triple_at(1), graphs, None, seed=2)
        result = decode_membership(cws, S, graphs)
        assert result.ok and result.triple == S.triple_at(1)

    def test_survivor_recount_is_exact(self, q2_graphs):
        S, _, rates, graphs = q2_graphs
        for t in range(20):
            seed = derive_seed(31, t)
            triple = S.triple_at(SeedStream(seed).randrange(len(S)))
            cws = _encode_triple(triple, graphs, None, seed)
            result = decode_membership(cws, S, graphs)
            brute = 0
            for row in S.members:
                if all(
                    payload_consistent(graphs[i], int(row[i]), cws[i].payload)
                    for i in range(3)
                ):
                    brute += 1
            assert (result.survivors or 0) == brute

    def test_pigeonhole_collision_with_short_deterministic_encoders(self):
        # Deterministic encoders shorter than log2 |S| in total admit an
        # instance with two or more survivors; exhibit one by search.
        S = named_correlation_set("collinear:q=2")  # 480 members, log2 ~ 8.9
        graphs = [SeededGraph(4, 2, 0, seed=i) for i in range(3)]  # 6 bits total
        found = None
        for idx in range(len(S)):
            triple = S.triple_at(idx)
            cws = _encode_triple(triple, graphs, None, seed=0)
            result = decode_membership(cws, S, graphs)
            if (result.survivors or 0) >= 2:
                found = (triple, result.survivors)
                break
        assert found is not None, "pigeonhole collision must exist"

    def test_tag_filter_applied_when_present(self, q2_graphs):
        S, _, rates, graphs = q2_graphs
        triple = S.triple_at(5)
        cws = _encode_triple(triple, graphs, SCHEME4, seed=4)
        result = decode_membership(cws, S, graphs)
        assert result.ok and result.triple == triple


# -- per-value payload checks against Python-set enumeration -----------------------

@st.composite
def any_kind_graph(draw, n):
    """A table, seeded or split graph of left width n.  A seeded graph with
    m = 22 has more than TABLE_CAP adjacency cells, so its payloads are
    checked node by node rather than through the cached matrix."""
    kind = draw(st.sampled_from(["table", "seeded", "split"]))
    if kind == "seeded":
        return SeededGraph(n, draw(st.sampled_from([1, 2, 3, 22])),
                           draw(st.integers(0, 2)), draw(st.integers(0, 99)))
    m = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, (1 << m) - 1), min_size=degree,
                                  max_size=degree),
                         min_size=1 << n, max_size=1 << n))
    g = TableGraph(n, m, np.array(rows, dtype=np.uint64))
    if kind == "split":
        g = SplitGraph(g, primes_first(draw(st.integers(1, 4))))
    return g


@st.composite
def membership_instances(draw):
    """(set rows, graphs, payloads): each payload is a neighbor of one
    member's string or any right node."""
    n = draw(st.integers(1, 4))
    value = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(st.tuples(value, value, value), min_size=1, max_size=30))
    graphs = [draw(any_kind_graph(n)) for _ in range(3)]
    payloads = []
    for coord, g in enumerate(graphs):
        if draw(st.booleans()):
            x = draw(st.sampled_from(rows))[coord]
            z = g.neighbor_int(x, draw(st.integers(0, g.degree - 1)))
        else:
            z = draw(st.integers(0, (1 << g.m) - 1))
        payloads.append(BitString(g.m, z))
    return n, rows, graphs, payloads


def _owners(rows, graphs, coords, payloads):
    return [r for r in sorted(set(rows))
            if all(payloads[c].value in neighbor_values(graphs[c], r[c]) for c in coords)]


@settings(max_examples=150, deadline=None)
@given(membership_instances(), st.data())
def test_decode_membership_matches_set_enumeration(instance, data):
    n, rows, graphs, payloads = instance
    tags = [data.draw(st.none() | st.builds(
        lambda p, r: HashTag(p, r % p), st.sampled_from([2, 3, 5, 7]), st.integers(0, 6)))
        for _ in range(3)]
    cws = [Codeword("ABC"[c], payloads[c], tags[c]) for c in range(3)]
    survivors = [r for r in _owners(rows, graphs, range(3), payloads)
                 if all(t is None or t.matches(x) for t, x in zip(tags, r))]
    result = decode_membership(cws, CorrelationSet(n, rows), graphs)
    assert result.survivors == len(survivors)
    if len(survivors) == 1:
        assert result.ok and result.triple == tuple(BitString(n, v) for v in survivors[0])
    else:
        assert not result.ok and result.triple is None


@settings(max_examples=150, deadline=None)
@given(membership_instances(), st.data())
def test_counting_candidates_match_set_enumeration(instance, data):
    n, rows, graphs, payloads = instance
    target = data.draw(st.integers(0, 2))
    conds = data.draw(st.lists(st.integers(0, 2), unique=True))
    known_coords = data.draw(st.lists(st.sampled_from([c for c in range(3) if c != target]),
                                      unique=True))
    anchor = data.draw(st.sampled_from(rows))
    known = {c: BitString(n, data.draw(st.sampled_from([anchor[c], 0]))) for c in known_coords}
    expected = sorted({r[target] for r in _owners(rows, graphs, conds, payloads)
                       if all(r[c] == v.value for c, v in known.items())})
    # at bound n the log-cardinality gate cannot fire
    got = CountingOracle(CorrelationSet(n, rows)).candidates(
        n, target, known, [(c, payloads[c], graphs[c]) for c in conds], n)
    assert got.dtype == np.int64 and got.tolist() == expected


SMALL_TOY = ToyOracle(ToyMachineConfig(max_len=10, step_budget=60))


def _reference_recover(stage, recovered, cws, oracle, graphs):
    """The oracle's candidates, each checked with one scalar payload test."""
    target, known, payload_conds, bound = stage
    g = graphs[target]
    values = oracle.candidates(
        g.n, target, {c: recovered[c] for c in known},
        [(c, cws[c].payload, graphs[c]) for c in payload_conds], bound)
    owners = [BitString(g.n, int(v)) for v in values
              if cws[target].payload.value in neighbor_values(g, int(v))]
    return (owners[0] if len(owners) == 1 else None), len(values)


@settings(max_examples=150, deadline=None)
@given(membership_instances(), st.booleans(), st.data())
def test_recover_matches_scalar_reference(instance, toy, data):
    n, rows, graphs, payloads = instance
    oracle = SMALL_TOY if toy else CountingOracle(CorrelationSet(n, rows))
    target = data.draw(st.integers(0, 2))
    others = [c for c in range(3) if c != target]
    known = tuple(sorted(data.draw(st.lists(st.sampled_from(others), unique=True))))
    conds = tuple(sorted(data.draw(st.lists(st.sampled_from(others), unique=True))))
    anchor = data.draw(st.sampled_from(rows))
    recovered = {c: BitString(n, data.draw(st.sampled_from([anchor[c], 0]))) for c in known}
    bound = data.draw(st.integers(4, 10) if toy else st.integers(0, n + 1))
    stage = (target, known, conds, bound)
    cws = [Codeword("ABC"[c], payloads[c]) for c in range(3)]
    want = _reference_recover(stage, recovered, cws, oracle, graphs)
    memo = {}
    assert _recover(*stage, recovered, cws, oracle, graphs, memo) == want
    assert _recover(*stage, recovered, cws, oracle, graphs, memo) == want  # a memo hit


@st.composite
def coverage_cases(draw):
    """(profile, rates, slack, codewords, oracle, graphs): a member of a
    small random correlation set under the counting oracle, or a triple of
    repeated strings under the toy machine at L = 10, encoded with the
    experiments' tag scheme at feasible rates (its profile's chain rates
    plus up to 2 each) on seeded graphs of width min(max(rate, 1), n)."""
    n = draw(st.sampled_from([3, 4]))
    value = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        S = CorrelationSet(n, draw(st.lists(st.tuples(value, value, value),
                                            min_size=1, max_size=40)))
        oracle = CountingOracle(S)
        triple = S.triple_at(draw(st.integers(0, len(S) - 1)))
        profile = oracle.profile()
    else:
        strings = draw(st.lists(value, min_size=1, max_size=3))
        triple = tuple(BitString(n, draw(st.sampled_from(strings))) for _ in range(3))
        oracle = SMALL_TOY
        profile = oracle.profile(triple)
    slack = draw(st.integers(0, 2))
    rates = RateVector(*(r + draw(st.integers(0, 2))
                         for r in rates_from_profile(profile.conditionals(), 0)))
    graphs = [SeededGraph(n, min(max(r, 1), n), draw(st.integers(0, 2)),
                          draw(st.integers(0, 99))) for r in rates]
    cws = _encode_triple(triple, graphs, HashScheme(n, 3, Fraction(1, n * n)),
                         draw(st.integers(0, 99)))
    return profile, rates, slack, cws, oracle, graphs


@settings(max_examples=150, deadline=None)
@given(coverage_cases())
def test_pruned_catalog_covers_the_twelve_branch_catalog(case):
    profile, rates, slack, cws, oracle, graphs = case
    outcomes = twelve_branch_outcomes(profile, rates, slack, cws, oracle, graphs)
    # the kept branches are the reference's, at the plan's bounds
    for idx, (name, lead, _) in enumerate(_CATALOG):
        lead_bound = None if lead is None else profile.values[lead] + slack
        assert _run_branch(idx, lead_bound, rates, slack, cws, oracle, graphs, {}) \
            == outcomes[name]
    consistent = {name for name, (triple, _) in outcomes.items()
                  if triple is not None and _tags_match(cws, triple)}
    assert decode_known_profile(cws, profile, rates, oracle, graphs, slack=slack).ok \
        == bool(consistent)
    if isinstance(oracle, CountingOracle):
        # joint-BC's stages hold helper-B's candidate sets or subsets of
        # them, at the same bounds (and joint-CB helper-C's)
        for helper, joint in (("helper-B", "joint-BC"), ("helper-C", "joint-CB")):
            if outcomes[helper][0] is not None:
                assert outcomes[joint][0] == outcomes[helper][0]
                assert outcomes[joint][1] <= outcomes[helper][1]
    removed = consistent - {name for name, _, _ in _CATALOG}
    event("a removed branch is tag-consistent" if removed
          else "tag-consistent" if consistent else "no tag-consistent branch")


def test_payload_checks_run_once_per_distinct_value(monkeypatch):
    # 40 members at n = 17: each coordinate checks its distinct values,
    # never the 2^17 strings of the width.
    checked = []
    bulk = LabeledBipartiteGraph.payload_consistent_bulk
    monkeypatch.setattr(LabeledBipartiteGraph, "payload_consistent_bulk",
                        lambda self, xs, payload: checked.append(len(xs)) or
                        bulk(self, xs, payload))
    rows = [(i, 7 * i % 5, 3) for i in range(40)]
    S = CorrelationSet(17, rows)
    graphs = [SeededGraph(17, 4, 1, seed=c) for c in range(3)]
    cws = [encode(graphs[c], BitString(17, rows[0][c]), None, seed=1, sender="ABC"[c])
           for c in range(3)]
    decode_membership(cws, S, graphs)
    CountingOracle(S).candidates(17, 0, {}, [(c, cws[c].payload, graphs[c])
                                             for c in range(3)], 17)
    assert checked == [40, 5, 1] * 2
