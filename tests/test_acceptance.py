"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured quantities so the
suite doubles as a checklist: run `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction

import pytest

from richowner.bits import BitString
from richowner.construction import build_random_graph, construct_rich_owner_graph
from richowner.crt import HashScheme, colliding_prime_indices, isolation_probability
from richowner.experiments import ExperimentConfig, report_json_text, run_experiment
from richowner.oracles import (
    CorrelationSet,
    CountingOracle,
    ToyMachineConfig,
    ToyOracle,
)
from richowner.protocol import (
    conditional_profile,
    decode_full,
    decode_known_profile,
    decode_membership,
    encode,
    rates_from_profile,
)
from richowner.rng import SeedStream, derive_seed
from richowner.scenarios import collinear_members, named_correlation_set
from richowner.verification import BFamily, check_prefix_extractor, rich_owner_fraction

from helpers import (
    chain_rule_slack,
    collinear_counts,
    converse_bound_check,
    int_to_point,
    is_collinear,
)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS - {detail}")


def test_criterion_01_extractor_audit():
    started = time.time()
    epsilon = Fraction(1, 4)
    family = BFamily(mode="exhaustive", min_size=4)
    passes, worsts = 0, []
    for seed in range(10):
        g = build_random_graph(4, 2, epsilon, 4, seed=derive_seed(9001, seed))
        report = check_prefix_extractor(g, epsilon, family)
        worsts.append(report.worst_error)
        if report.passed:
            passes += 1
        else:
            assert report.failures, "failing seed must carry violation witnesses"
            assert all("worst_error" in f for f in report.failures)
    assert passes >= 1
    _report(
        "1 (extractor audit)",
        f"{passes}/10 seeds pass exhaustively (all |B|>=4, all A); "
        f"worst deviation {max(worsts)} <= {epsilon}; {time.time()-started:.0f}s",
    )


def test_criterion_02_rich_owner_audit():
    started = time.time()
    delta = Fraction(7, 10)
    g, build_report = construct_rich_owner_graph(6, 3, delta, seed=9002)
    family = BFamily(mode="all-of-size", size=8)
    report = rich_owner_fraction(g, family, k=3, delta=delta)
    assert report.passed
    assert report.min_rich_fraction >= 1 - delta
    assert report.checked == math.comb(64, 8)
    _report(
        "2 (rich-owner audit)",
        f"all C(64,8)={report.checked} sets of size 8 at rich fraction "
        f">= {report.min_rich_fraction} (>= 0.3 required), certified="
        f"{report.certified}; {time.time()-started:.0f}s",
    )


def test_criterion_03_crt_isolation():
    started = time.time()
    scheme = HashScheme(16, 3, Fraction(1, 10))
    stream = SeedStream(9003)
    worst = Fraction(1)
    for _ in range(1000):
        u1 = stream.bits(16)
        distractors = set()
        while len(distractors) < 2:
            v = stream.bits(16)
            if v != u1:
                distractors.add(v)
        p = isolation_probability(u1, distractors, scheme)
        worst = min(worst, p)
        assert p >= 1 - Fraction(1, 10)
        for v in distractors:
            assert len(colliding_prime_indices(u1, v, scheme.primes)) <= 16
    _report(
        "3 (CRT isolation)",
        f"1000 instances at n=16, s=3, eps=1/10: worst isolation {worst} "
        f">= 9/10; divisor bound <= 16 everywhere; {time.time()-started:.0f}s",
    )


def test_criterion_04_counting_chain_rule():
    started = time.time()
    checked = 0
    for q in (2, 3, 4):
        S = named_correlation_set(f"collinear:q={q}")
        oracle = CountingOracle(S)
        assert chain_rule_slack(oracle, S.triple_at(0)) == 0
        checked += 1
    stream = SeedStream(9004)
    for _ in range(20):
        n = 3 + stream.randrange(3)
        count = 2 + stream.randrange(120)
        members = {
            (stream.bits(n), stream.bits(n), stream.bits(n)) for _ in range(count)
        }
        S = CorrelationSet(n, sorted(members))
        assert chain_rule_slack(CountingOracle(S), S.triple_at(0)) == 0
        checked += 1
    _report(
        "4 (counting chain rule)",
        f"slack identically 0 on collinear q=2,3,4 and 20 random sets "
        f"({checked} sets); {time.time()-started:.0f}s",
    )


def test_criterion_05_collinear_counts():
    started = time.time()
    members = collinear_members(2)
    assert len(members) == 480 == collinear_counts(2)["total"]
    brute = 0
    for a in range(16):
        for b in range(16):
            for c in range(16):
                if len({a, b, c}) == 3 and is_collinear(
                    int_to_point(a, 2), int_to_point(b, 2), int_to_point(c, 2)
                ):
                    brute += 1
    assert brute == 480
    deviations = []
    for q in (2, 3):
        profile = CountingOracle(named_correlation_set(f"collinear:q={q}")).profile()
        target = (2 * q,) * 3 + (4 * q,) * 3 + (5 * q,)
        for got, want in zip(profile.values, target):
            deviations.append(abs(got - want))
            assert abs(got - want) <= 1
    _report(
        "5 (collinear counts)",
        f"|S|=480 by formula and brute force; q=2,3 profiles within "
        f"{max(deviations)} bit of (2q,..,5q); {time.time()-started:.0f}s",
    )


def test_criterion_06_membership_decoding():
    started = time.time()
    q = 4
    S = named_correlation_set(f"collinear:q={q}")
    oracle = CountingOracle(S)
    conds = conditional_profile(oracle, None)
    rates = rates_from_profile(conds, slack=2, cap=2 * q)
    from richowner.protocol import check_rate_feasibility
    violated = check_rate_feasibility(oracle.profile(), rates, 0)
    assert not violated, "derived rates must satisfy every subset inequality"
    graphs = [
        construct_rich_owner_graph(
            2 * q, max(1, min(r, 2 * q)), Fraction(1, 2),
            seed=derive_seed(9006, "graph", i),
        )[0]
        for i, r in enumerate(rates)
    ]
    wins = 0
    for t in range(500):
        seed = derive_seed(9006, "trial", t)
        triple = S.triple_at(SeedStream(seed).randrange(len(S)))
        cws = [
            encode(graphs[i], triple[i], None, derive_seed(seed, "enc", i), "ABC"[i])
            for i in range(3)
        ]
        result = decode_membership(cws, S, graphs)
        if result.ok and result.triple == triple:
            wins += 1
    rate = wins / 500
    assert rate >= 0.9
    _report(
        "6 (membership decoding)",
        f"collinear q=4, pipeline delta=1/2, rates {tuple(rates)}: "
        f"unique-survivor success {rate:.3f} >= 0.9 over 500 trials; "
        f"{time.time()-started:.0f}s",
    )


def test_criterion_07_staged_decoder_with_toy_machine():
    started = time.time()
    n, slack = 8, 4
    cfg = ToyMachineConfig(max_len=12, step_budget=200)
    oracle = ToyOracle(cfg)
    graphs = [
        construct_rich_owner_graph(n, n, Fraction(1, 2),
                                   seed=derive_seed(9007, "graph", i))[0]
        for i in range(3)
    ]
    scheme = HashScheme(n, 3, Fraction(1, n * n))
    half = n // 2

    def plant(seed):
        stream = SeedStream(derive_seed(seed, "plant"))
        w1, w2 = stream.bits(half), stream.bits(half)
        base = [BitString(n, (w1 << half) | w1), BitString(n, (w2 << half) | w2)]
        pattern = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0))[stream.randrange(4)]
        return tuple(base[i] for i in pattern)

    known_ok = full_ok = tag_inconsistent = 0
    for t in range(200):
        seed = derive_seed(9007, "trial", t)
        triple = plant(seed)
        conds = conditional_profile(oracle, triple)
        rates = rates_from_profile(conds, slack=slack, cap=n + slack)
        cws = [
            encode(graphs[i], triple[i], scheme, derive_seed(seed, "enc", i), "ABC"[i])
            for i in range(3)
        ]
        profile = oracle.profile(triple)
        known = decode_known_profile(
            cws, profile, rates, oracle, graphs, slack=slack
        )
        if known.ok and known.triple == triple:
            known_ok += 1
        full = decode_full(cws, rates, oracle, graphs, slack=slack)
        if full.ok:
            if not all(cw.tag.matches(x.value) for cw, x in zip(cws, full.triple)):
                tag_inconsistent += 1
            if full.triple == triple:
                full_ok += 1
    known_rate, full_rate = known_ok / 200, full_ok / 200
    assert known_rate >= 0.9
    assert full_rate >= 0.85
    assert tag_inconsistent == 0
    _report(
        "7 (staged decoder, toy machine)",
        f"200 planted trials at n=8, L=12, T=200: known-profile {known_rate:.3f} "
        f">= 0.9, profile-search {full_rate:.3f} >= 0.85, tag-inconsistent "
        f"returns {tag_inconsistent}; {time.time()-started:.0f}s",
    )


def test_criterion_08_converse_bound():
    started = time.time()
    stream = SeedStream(9008)
    for trial in range(100):
        # every codeword strictly shorter than 6 bits
        encoder = {}
        for x in range(64):
            width = 1 + stream.randrange(5)
            encoder[x] = BitString(width, stream.bits(width))
        # the most favorable decoder still loses by pigeonhole
        decoder = {}
        for x in range(64):
            decoder.setdefault(encoder[x], x)
        verdict = converse_bound_check([encoder], decoder, k=6, epsilon=Fraction(0))
        assert not verdict.passed
        assert verdict.witness is not None
        a, b = verdict.witness
        assert a != b and encoder[a] == encoder[b]
    for trial in range(100):
        perm = list(range(64))
        # seeded Fisher-Yates
        for i in range(63, 0, -1):
            j = stream.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        encoder = {x: BitString(6, perm[x]) for x in range(64)}
        decoder = {BitString(6, perm[x]): x for x in range(64)}
        verdict = converse_bound_check([encoder], decoder, k=6, epsilon=Fraction(0))
        assert verdict.passed
    _report(
        "8 (converse bound)",
        "100 random sub-6-bit tables all yield collision witnesses; "
        f"100 injective 6-bit tables all pass; {time.time()-started:.0f}s",
    )


def test_criterion_09_rate_region_necessity():
    started = time.time()
    config = ExperimentConfig(
        scenario="collinear:q=3", oracle="counting", decoder="membership",
        rates="total-3", graphs="binning", trials=300, seed=9009,
    )
    report = run_experiment(config)
    rate = report["aggregates"]["success_rate"]
    assert report["trials"][0]["rates"] == "4,4,4"  # C(ABC)=15 minus 3, balanced
    assert rate <= 0.5
    _report(
        "9 (rate-region necessity)",
        f"q=3 membership with rates 4,4,4 (triple constraint violated by 3): "
        f"success {rate:.3f} <= 0.5 over 300 trials; {time.time()-started:.0f}s",
    )


def test_criterion_10_experiment_determinism():
    started = time.time()
    config = ExperimentConfig(
        scenario="collinear:q=2", oracle="counting", decoder="membership",
        rates="profile+2", graphs="pipeline:delta=1/2", trials=25, seed=9010,
    )
    text1 = report_json_text(run_experiment(config))
    text2 = report_json_text(run_experiment(config))
    assert text1 == text2
    _report(
        "10 (determinism)",
        f"two runs of the same config produce byte-identical JSON "
        f"({len(text1)} bytes); {time.time()-started:.0f}s",
    )
