import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from richowner import verification
from richowner.construction import (
    build_random_graph,
    construct_rich_owner_graph,
    split_edges,
)
from richowner.graphs import (
    GraphError,
    SeededGraph,
    TableGraph,
)
from richowner.verification import (
    BFamily,
    _descr,
    _richness_by_certificate,
    check_prefix_extractor,
    classify_owner,
    large_regime_threshold,
    node_damage_bound,
    rich_owner_fraction,
)

from helpers import all_to_one_graph, complete_graph


def injective_degree_one_graph(n):
    table = np.arange(1 << n, dtype=np.uint64).reshape(-1, 1)
    return TableGraph(n, n, table)


def extractor_error(g, B, A):
    """| |E(B,A)| / (|B| D) - |A| / |R| |, exactly, edge by edge."""
    if not B:
        raise ValueError("B must be nonempty")
    a = set(A)
    edges = sum(1 for x in B for v in g.neighbor_values(x) if v in a)
    return abs(Fraction(edges, len(B) * g.degree) - Fraction(len(a), 1 << g.m))


def prefix_graph(g, k_prime):
    """g's table graph with right nodes cut to their leading k' bits."""
    return TableGraph(g.n, k_prime, g.table >> np.uint64(g.m - k_prime))


class TestExtractorError:
    def test_complete_graph_zero_error(self):
        g = complete_graph(3, 2)
        for B in [(0,), (1, 5), tuple(range(8))]:
            for A in [(0,), (1, 2), (0, 1, 2, 3)]:
                assert extractor_error(g, B, A) == 0

    def test_all_to_one_error(self):
        g = all_to_one_graph(3, 2, 2)
        assert extractor_error(g, [0, 1], [0]) == 1 - Fraction(1, 4)

    def test_empty_b_rejected(self):
        with pytest.raises(Exception):
            extractor_error(complete_graph(2, 2), [], [0])

    def test_complement_symmetry(self):
        g = build_random_graph(4, 2, Fraction(1, 2), 1, seed=12)
        B = (0, 3, 7, 11)
        R = range(1 << g.m)
        for A in [(0,), (1, 2), (0, 3)]:
            comp = tuple(z for z in R if z not in A)
            assert extractor_error(g, B, A) == extractor_error(g, B, comp)

    def test_exhaustive_small_graph_within_epsilon(self):
        g = build_random_graph(4, 2, Fraction(1, 4), 4, seed=0)
        report = check_prefix_extractor(g, Fraction(1, 4),
                                        BFamily(mode="all-of-size", size=4))
        assert report.checked == 2 * math.comb(16, 4)
        assert report.worst_error <= Fraction(1, 4)


class TestWorstError:
    def test_matches_brute_force_over_all_A(self):
        # The audit's worst error is the worst over every set, every prefix
        # width and every right set A of the merged graph.
        g = build_random_graph(3, 2, Fraction(1, 2), 1, seed=7)
        for size in (2, 3, 8):
            report = check_prefix_extractor(g, Fraction(1),
                                            BFamily(mode="all-of-size", size=size))
            brute = max(
                extractor_error(prefix_graph(g, k_prime), B, A)
                for k_prime in (1, 2) if size >= 1 << k_prime
                for B in combinations(range(8), size)
                for r in range((1 << k_prime) + 1)
                for A in combinations(range(1 << k_prime), r)
            )
            assert report.worst_error == brute


class TestCheckPrefixExtractor:
    def test_complete_graph_passes_exactly(self):
        g = complete_graph(3, 3)
        report = check_prefix_extractor(g, Fraction(0), BFamily(mode="exhaustive"))
        assert report.passed and report.worst_error == 0

    def test_planted_bad_graph_fails(self):
        g = all_to_one_graph(3, 3, 2)
        report = check_prefix_extractor(
            g, Fraction(1, 2), BFamily(mode="exhaustive")
        )
        assert not report.passed
        assert report.failures

    def test_random_graph_passes_sampled_families(self):
        g = build_random_graph(8, 4, Fraction(1, 4), 4, seed=3)
        family = BFamily(mode="sampled", size=16, count=1000, seed=5)
        report = check_prefix_extractor(g, Fraction(1, 4), family)
        assert report.passed
        assert report.checked == 4 * 1000

    def test_failures_in_sorted_set_order(self):
        g = all_to_one_graph(2, 1, 1)
        report = check_prefix_extractor(g, Fraction(0), BFamily(mode="exhaustive"))
        assert [f["B_descriptor"] for f in report.failures] == [
            "0,1", "0,1,2", "0,1,2,3", "0,1,3", "0,2", "0,2,3", "0,3", "1,2",
            "1,2,3", "1,3", "2,3"]

    def test_epsilon_boundary_is_exact(self):
        g = build_random_graph(3, 2, Fraction(1, 2), 1, seed=7)
        family = BFamily(mode="exhaustive")
        worst = check_prefix_extractor(g, Fraction(1), family).worst_error
        assert check_prefix_extractor(g, worst, family).passed
        assert not check_prefix_extractor(g, worst - Fraction(1, 10**9), family).passed
        # every error is >= 0 > epsilon
        assert not check_prefix_extractor(complete_graph(2, 2), Fraction(-1), family).passed

    def test_count_table_over_cap_raises(self):
        g = SeededGraph(5, 20, 0, seed=1)  # 2^25 endpoint counts
        with pytest.raises(GraphError, match="endpoint-count"):
            check_prefix_extractor(g, Fraction(1, 4),
                                   BFamily(mode="sampled", size=2, count=1, seed=0))

    def test_report_json_shape(self):
        g = complete_graph(2, 2)
        report = check_prefix_extractor(g, Fraction(1, 4), BFamily(mode="exhaustive"))
        obj = report.to_json()
        for key in ("graph_id", "k", "delta", "epsilon", "mode", "checked", "failures"):
            assert key in obj


class TestClassifyOwner:
    def test_degree_one_injective_all_rich(self):
        g = injective_degree_one_graph(3)
        B = [0, 2, 5, 7]
        for x in B:
            cls = classify_owner(g, B, x, k=2, delta=Fraction(1, 2))
            assert cls.regime == "small"
            assert cls.rich and cls.owned_fraction == 1
            assert cls.threshold_used == 1

    def test_all_to_one_small_regime_all_poor(self):
        g = all_to_one_graph(2, 2, 1)
        B = [0, 1]
        for x in B:
            cls = classify_owner(g, B, x, k=2, delta=Fraction(1, 2))
            assert cls.regime == "small"
            assert not cls.rich and cls.owned_fraction == 0

    def test_membership_required(self):
        g = injective_degree_one_graph(3)
        with pytest.raises(Exception):
            classify_owner(g, [0, 1], 5, k=2, delta=Fraction(1, 2))

    def test_regime_boundary(self):
        g = injective_degree_one_graph(3)
        small = classify_owner(g, list(range(4)), 0, k=2, delta=Fraction(1, 2))
        assert small.regime == "small"
        large = classify_owner(g, list(range(5)), 0, k=2, delta=Fraction(1, 2))
        assert large.regime == "large"

    def test_monotone_threshold_in_large_regime(self):
        # Increasing delta raises the congestion threshold and lowers the
        # required fraction: a rich owner never turns poor.
        rng = np.random.default_rng(11)
        table = rng.integers(0, 4, size=(16, 8), dtype=np.uint64)
        g = TableGraph(4, 2, table)
        B = list(range(9))
        deltas = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)]
        for x in B:
            last_rich = False
            for delta in deltas:
                cls = classify_owner(g, B, x, k=2, delta=delta)
                assert cls.regime == "large"
                if last_rich:
                    assert cls.rich
                last_rich = cls.rich

    def test_threshold_formula(self):
        assert large_regime_threshold(Fraction(1, 2), 9, 8, 2) == math.ceil(8 * 9 * 8 / 4)

    def test_pure_function(self):
        g = injective_degree_one_graph(3)
        a = classify_owner(g, [0, 1, 2], 1, k=1, delta=Fraction(1, 2))
        b = classify_owner(g, [0, 1, 2], 1, k=1, delta=Fraction(1, 2))
        assert a == b


class TestRichOwnerFraction:
    def test_injective_graph_full_fraction(self):
        g = injective_degree_one_graph(3)
        report = rich_owner_fraction(
            g, BFamily(mode="exhaustive"), k=2, delta=Fraction(1, 2)
        )
        assert report.passed and report.min_rich_fraction == 1

    def test_all_to_one_fails(self):
        g = all_to_one_graph(2, 3, 1)
        report = rich_owner_fraction(
            g, BFamily(mode="all-of-size", size=2), k=2, delta=Fraction(1, 2)
        )
        assert not report.passed
        assert report.min_rich_fraction == 0
        assert report.failures

    def test_pipeline_output_passes_sampled_families(self):
        g, _ = construct_rich_owner_graph(6, 3, Fraction(7, 10), seed=20)
        family = BFamily(mode="sampled", size=8, count=100, seed=3)
        report = rich_owner_fraction(g, family, k=3, delta=Fraction(7, 10))
        assert report.passed

    def test_certificate_agrees_with_enumeration(self):
        # Both routes must agree on a family small enough to enumerate.
        g, _ = construct_rich_owner_graph(4, 2, Fraction(7, 10), seed=6)
        family = BFamily(mode="all-of-size", size=4)
        enumerated = rich_owner_fraction(g, family, k=2, delta=Fraction(7, 10))
        certified = _richness_by_certificate(
            g, family, k=2, delta=Fraction(7, 10), total=family.set_count(4)
        )
        assert enumerated.passed
        assert certified.passed and certified.certified
        assert certified.checked == math.comb(16, 4)


    def test_one_threshold_per_set(self, monkeypatch):
        # The large-regime threshold depends on the set, not the member.
        calls = []
        threshold = verification.large_regime_threshold
        monkeypatch.setattr(verification, "large_regime_threshold",
                            lambda *args: calls.append(args) or threshold(*args))
        table = np.random.default_rng(3).integers(0, 4, size=(8, 4), dtype=np.uint64)
        report = rich_owner_fraction(TableGraph(3, 2, table),
                                     BFamily(mode="all-of-size", size=5), k=2,
                                     delta=Fraction(1, 2))
        assert report.checked == math.comb(8, 5)
        assert len(calls) == report.checked

class TestExtractorImpliesRichness:
    def test_large_regime_richness_from_exhaustive_extractor_pass(self):
        epsilon = Fraction(1, 4)
        delta = Fraction(1, 2) ** 0  # placeholder, computed below
        g = build_random_graph(4, 2, epsilon, 4, seed=0)
        report = check_prefix_extractor(g, epsilon, BFamily(mode="exhaustive"))
        assert report.passed
        # delta = sqrt(2 epsilon) is representable here: sqrt(1/2) is not
        # rational, so audit at the next representable coarser value.
        delta = Fraction(707, 1000)
        for k_prime in (1, 2):
            merged = prefix_graph(g, k_prime)
            for size in range((1 << k_prime) + 1, 18):
                for B in list(combinations(range(16), size))[:40]:
                    rich = sum(
                        1 for x in B
                        if classify_owner(merged, B, x, k=k_prime, delta=delta).rich
                    )
                    assert Fraction(rich, len(B)) >= 1 - delta


class TestInconclusiveCertificate:
    FAMILY = BFamily(mode="all-of-size", size=4)

    def test_weak_union_bound_is_inconclusive_not_failed(self):
        # The union bound is too weak on this graph, yet every one of the
        # 1820 sets of size 4 passes when enumerated.
        table = np.random.default_rng(0).integers(0, 4, size=(16, 2), dtype=np.uint64)
        g = split_edges(TableGraph(4, 2, table), s=1, delta=Fraction(1, 2))
        certified = _richness_by_certificate(
            g, self.FAMILY, k=2, delta=Fraction(1, 2), total=1820)
        assert certified.passed is None and not certified.certified
        assert certified.min_rich_fraction is None and not certified.failures
        assert certified.to_json()["passed"] is None
        assert any("union bound" in note for note in certified.notes)
        enumerated = rich_owner_fraction(g, self.FAMILY, k=2, delta=Fraction(1, 2))
        assert enumerated.passed and enumerated.min_rich_fraction == 1
        assert enumerated.checked == 1820

    def test_confirmed_witness_fails_with_its_rich_fraction(self):
        table = np.random.default_rng(0).integers(0, 4, size=(16, 1), dtype=np.uint64)
        g = split_edges(TableGraph(4, 2, table), s=1, delta=Fraction(1))
        certified = _richness_by_certificate(
            g, self.FAMILY, k=2, delta=Fraction(1, 2), total=1820)
        assert certified.passed is False and certified.failures
        assert certified.min_rich_fraction == min(
            Fraction(f["rich_fraction"]) for f in certified.failures)
        enumerated = rich_owner_fraction(g, self.FAMILY, k=2, delta=Fraction(1, 2))
        assert not enumerated.passed
        assert enumerated.min_rich_fraction <= certified.min_rich_fraction


# -- the ownership kernel against per-slot brute force -------------------------

def reference_classification(g, B, x, k, delta):
    """(regime, rich, owned fraction, threshold) from expanded neighbor lists."""
    values = {o: g.neighbor_values(o) for o in B}
    if len(B) <= 1 << k:
        threshold = 1
        good = sum(1 for z in values[x]
                   if not any(z in values[o] for o in B if o != x))
    else:
        threshold = math.ceil(Fraction(2) / delta ** 2 * len(B) * g.degree / (1 << k))
        good = sum(1 for z in values[x]
                   if sum(values[o].count(z) for o in B) <= threshold)
    frac = Fraction(good, g.degree)
    return ("small" if len(B) <= 1 << k else "large", frac >= 1 - delta, frac,
            threshold)


def reference_damage(g, x, other):
    spoiled = set(g.neighbor_values(other))
    return sum(1 for z in g.neighbor_values(x) if z in spoiled)


SPLITS = [None, (1, Fraction(1)), (1, Fraction(1, 2)), (2, Fraction(1)), (2, Fraction(1, 2))]


@st.composite
def graphs_with_splits(draw, ns=st.integers(1, 4), ms=st.integers(1, 3),
                       splits=st.sampled_from(SPLITS)):
    n = draw(ns)
    m = draw(ms)
    degree = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, (1 << m) - 1), min_size=degree, max_size=degree)
    rows = draw(st.lists(row, min_size=1 << n, max_size=1 << n))
    g = TableGraph(n, m, np.array(rows, dtype=np.uint64))
    split = draw(splits)
    return g if split is None else split_edges(g, *split)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ownership_kernel_matches_brute_force(data):
    g = data.draw(graphs_with_splits())
    B = sorted(data.draw(st.lists(st.integers(0, (1 << g.n) - 1), min_size=1,
                                  unique=True)))
    for x in B:
        # the large-regime threshold binds only for delta near 1 and k >= 2
        for k in (1, 2, 3):
            for delta in (Fraction(1, 2), Fraction(7, 10), Fraction(1)):
                cls = classify_owner(g, B, x, k, delta)
                assert (cls.regime, cls.rich, cls.owned_fraction,
                        cls.threshold_used) == reference_classification(g, B, x, k, delta)
        for o in B:
            if o != x:
                assert node_damage_bound(g, x, o) == reference_damage(g, x, o)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_large_regime_at_a_binding_threshold(data):
    # One right bit piles the load near the k = 2, delta = 1 threshold |B| D / 2.
    g = data.draw(graphs_with_splits(ns=st.just(4), ms=st.just(1)))
    B = sorted(data.draw(st.lists(st.integers(0, 15), min_size=5, unique=True)))
    for x in B:
        cls = classify_owner(g, B, x, 2, Fraction(1))
        assert (cls.regime, cls.rich, cls.owned_fraction,
                cls.threshold_used) == reference_classification(g, B, x, 2, Fraction(1))


# -- the edge-density kernel against the per-set loop --------------------------

def reference_prefix_extractor(g, epsilon, family):
    """(checked, passed, worst error, failures) from one Fraction per set
    and prefix width, merging right nodes by shifting their values."""
    sets = sorted(set(family.iter_sets(g.n)))
    values = [g.neighbor_values(x) for x in range(1 << g.n)]
    checked, passed, worst, failures = 0, True, None, []
    for k_prime in range(1, g.m + 1):
        R, shift = 1 << k_prime, g.m - k_prime
        for B in sets:
            if len(B) < R:
                continue
            hist = Counter(v >> shift for x in B for v in values[x])
            edges = len(B) * g.degree
            dev = sum(abs(h * R - edges) for h in hist.values())
            dev += (R - len(hist)) * edges
            err = Fraction(dev, 2 * edges * R)
            checked += 1
            worst = err if worst is None else max(worst, err)
            if err > epsilon:
                passed = False
                if len(failures) < 20:
                    failures.append({"k_prime": k_prime, "B_descriptor": _descr(B),
                                     "worst_error": str(err)})
    return checked, passed, worst, failures


@st.composite
def families(draw, n):
    N = 1 << n
    mode = draw(st.sampled_from(["exhaustive", "all-of-size", "sampled"]))
    if mode == "exhaustive":
        # n = 4 is capped at sets of size 3 to keep the reference quick
        low = draw(st.integers(1, 3 if n == 4 else N))
        high = draw(st.integers(low, 3 if n == 4 else N))
        return BFamily(mode="exhaustive", min_size=low, max_size=high)
    size = draw(st.integers(min(2, N), N).filter(lambda s: math.comb(N, s) <= 2000))
    if mode == "all-of-size":
        return BFamily(mode="all-of-size", size=size)
    return BFamily(mode="sampled", size=size, count=draw(st.integers(1, 30)),
                   seed=draw(st.integers(0, 1000)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prefix_extractor_matches_per_set_loop(data):
    # table graphs fail at some width far more often than split images
    g = data.draw(graphs_with_splits(splits=st.sampled_from(SPLITS[:1] * 4 + SPLITS)))
    family = data.draw(families(g.n))
    epsilon = data.draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(707, 1000)]))
    report = check_prefix_extractor(g, epsilon, family)
    assert (report.checked, report.passed, report.worst_error,
            report.failures) == reference_prefix_extractor(g, epsilon, family)
