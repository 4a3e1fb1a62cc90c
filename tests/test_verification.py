import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from richowner import graphs, verification
from richowner.construction import (
    build_random_graph,
    construct_rich_owner_graph,
    split_edges,
)
from richowner.graphs import (
    GraphError,
    SeededGraph,
    SplitGraph,
    TableGraph,
)
from richowner.verification import (
    BFamily,
    _damage,
    _descr,
    _richness_by_certificate,
    check_prefix_extractor,
    large_regime_threshold,
    rich_owner_fraction,
)

from helpers import (
    all_to_one_graph,
    b_degree,
    classify_owner,
    complete_graph,
    incidence_prefix_extractor,
    listed_sizes,
    neighbor_values,
    seed_stream_sampled_sets,
)


def injective_degree_one_graph(n):
    table = np.arange(1 << n, dtype=np.uint64).reshape(-1, 1)
    return TableGraph(n, n, table)


def extractor_error(g, B, A):
    """| |E(B,A)| / (|B| D) - |A| / |R| |, exactly, edge by edge."""
    if not B:
        raise ValueError("B must be nonempty")
    a = set(A)
    edges = sum(1 for x in B for v in neighbor_values(g, x) if v in a)
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

    def test_failures_of_large_sets_are_described_by_size_and_head(self):
        """A set of more than 16 members is named by its size and its first
        eight members; each failing set shows at every prefix width."""
        g = all_to_one_graph(6, 2, 1)
        family = BFamily(mode="sampled", size=32, count=3, seed=4)
        report = check_prefix_extractor(g, Fraction(0), family)
        assert not report.passed
        sets = sorted(set(seed_stream_sampled_sets(family, 6)))
        assert [(f["k_prime"], f["B_descriptor"]) for f in report.failures] == [
            (k_prime, "size=32,head=" + ",".join(str(x) for x in B[:8]) + ",...")
            for k_prime in (1, 2) for B in sets]

    def test_epsilon_boundary_is_exact(self):
        g = build_random_graph(3, 2, Fraction(1, 2), 1, seed=7)
        family = BFamily(mode="exhaustive")
        worst = check_prefix_extractor(g, Fraction(1), family).worst_error
        assert check_prefix_extractor(g, worst, family).passed
        assert not check_prefix_extractor(g, worst - Fraction(1, 10**9), family).passed
        # every error is >= 0, so a negative epsilon is refused, not failed
        with pytest.raises(GraphError, match="epsilon must be >= 0"):
            check_prefix_extractor(complete_graph(2, 2), Fraction(-1), family)

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

    def test_unsplit_graph_takes_the_certificate(self):
        # C(32, 8) sets are too many to enumerate; no two nodes share an endpoint
        report = rich_owner_fraction(injective_degree_one_graph(5),
                                     BFamily(mode="all-of-size", size=8), k=3, delta=Fraction(1, 2))
        assert report.passed and report.certified and report.checked == math.comb(32, 8)

    def test_sampled_duplicates_are_audited_once(self):
        # 20 draws of 2 of the 4 left nodes repeat sets; both audits read
        # the family's 5 distinct sets
        g = TableGraph(2, 1, np.array([[0, 1]] * 4, dtype=np.uint64))
        family = BFamily(mode="sampled", size=2, count=20, seed=1)
        assert len(set(family._sampled_sets(2))) == 5
        richness = rich_owner_fraction(g, family, k=1, delta=Fraction(1, 2))
        extractor = check_prefix_extractor(g, Fraction(1, 2), family)
        assert richness.checked == extractor.checked == 5
        assert list(family.iter_sets(2)) == sorted(set(family._sampled_sets(2)))

    @pytest.mark.parametrize("check", ["richness", "extractor"])
    def test_sampled_family_past_the_table_cap_is_refused_before_drawing(self, check,
                                                                          monkeypatch):
        # 9 draws of 2 members pass a cap of 16; 8 do not
        monkeypatch.setattr(verification, "TABLE_CAP", 16)
        monkeypatch.setattr(BFamily, "_sampled_sets", lambda *args: pytest.fail("drew"))
        g = TableGraph(2, 1, np.array([[0, 1]] * 4, dtype=np.uint64))
        audit = {"richness": lambda family: rich_owner_fraction(g, family, 1, Fraction(1, 2)),
                 "extractor": lambda family: check_prefix_extractor(g, Fraction(1, 2), family)}
        with pytest.raises(GraphError) as err:
            audit[check](BFamily(mode="sampled", size=2, count=9, seed=1))
        assert str(err.value) == ("family sampled:size=2,count=9,seed=1 draws 18 members, "
                                  "past the table cap of 16")
        monkeypatch.undo()
        assert audit[check](BFamily(mode="sampled", size=2, count=8, seed=1)).checked > 0

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
    values = {o: neighbor_values(g, o) for o in B}
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
    spoiled = set(neighbor_values(g, other))
    return sum(1 for z in neighbor_values(g, x) if z in spoiled)


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
    damage = _damage(g)
    for x in B:
        # the large-regime threshold binds only for delta near 1 and k >= 2
        for k in (1, 2, 3):
            for delta in (Fraction(1, 2), Fraction(7, 10), Fraction(1)):
                cls = classify_owner(g, B, x, k, delta)
                assert (cls.regime, cls.rich, cls.owned_fraction,
                        cls.threshold_used) == reference_classification(g, B, x, k, delta)
        for o in B:
            if o != x:
                assert damage[x, o] == reference_damage(g, x, o)


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


def reference_certificate(g, family, k, delta):
    """The certificate's report from per-pair damage, a sorted ranking and
    per-member classification of each witness set."""
    N, size, slots = 1 << g.n, family.size, g.degree
    worst_lb, spoilers = None, {}
    for x in range(N):
        damage = {o: reference_damage(g, x, o) for o in range(N) if o != x}
        ranked = sorted(damage, key=damage.get, reverse=True)[: size - 1]
        worst = sum(damage[o] for o in ranked)
        lb = 1 - Fraction(worst, slots)
        worst_lb = lb if worst_lb is None else min(worst_lb, lb)
        if worst > delta * slots:
            spoilers[x] = ranked
    report = {"graph_id": g.graph_id(), "kind": "rich-owner", "k": k, "delta": str(delta),
              "epsilon": None, "mode": "all-of-size:certified",
              "checked": family.set_count(g.n), "worst_error": None}
    if not spoilers:
        return {**report, "passed": True, "min_rich_fraction": "1", "certified": True,
                "failures": [], "notes": [
                    f"union-bound certificate: every node keeps owned fraction >= "
                    f"{worst_lb} in every set of size {size}"]}
    failures, failing = [], []
    for x, ranked in list(spoilers.items())[:50]:
        B = sorted([x] + ranked)
        frac = Fraction(sum(reference_classification(g, B, o, k, delta)[1] for o in B),
                        len(B))
        if frac < 1 - delta:
            failing.append(frac)
            failures.append({"B_descriptor": _descr(B), "rich_fraction": str(frac)})
    return {**report, "passed": False if failures else None,
            "min_rich_fraction": str(min(failing)) if failing else None,
            "certified": False, "failures": failures, "notes": [
                f"certificate inconclusive for {len(spoilers)} nodes; "
                f"{len(failures)} adversarial witnesses confirmed",
                f"union bound: every node keeps owned fraction >= {worst_lb} "
                f"in every set of size {size}, short of the {1 - delta} required"]}


DELTAS = [Fraction(1, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1)]


@st.composite
def certificate_cases(draw):
    g = draw(graphs_with_splits())
    k = draw(st.integers(1, 3))
    size = draw(st.integers(1, min(1 << g.n, 1 << k)))
    return g, size, k, draw(st.sampled_from(DELTAS))


# TestInconclusiveCertificate's first graph: each outcome at some size and delta
WEAK_BOUND_GRAPH = split_edges(TableGraph(4, 2, np.random.default_rng(0).integers(
    0, 4, size=(16, 2), dtype=np.uint64)), s=1, delta=Fraction(1, 2))


@settings(max_examples=80, deadline=None)
@given(certificate_cases())
@example((WEAK_BOUND_GRAPH, 4, 2, Fraction(1, 2)))  # inconclusive
@example((WEAK_BOUND_GRAPH, 4, 2, Fraction(1, 10)))  # a failing witness
@example((WEAK_BOUND_GRAPH, 2, 1, Fraction(1)))  # certified
def test_certificate_matches_brute_force(case):
    g, size, k, delta = case
    family = BFamily(mode="all-of-size", size=size)
    report = _richness_by_certificate(g, family, k, delta, family.set_count(g.n))
    assert report.to_json() == reference_certificate(g, family, k, delta)


def test_certificate_over_table_cap_is_refused_before_reading_rows(monkeypatch):
    monkeypatch.setattr(verification, "TABLE_CAP", 255)
    monkeypatch.setattr(TableGraph, "rows", lambda self, xs: pytest.fail("read a row"))
    family = BFamily(mode="all-of-size", size=4)
    with pytest.raises(GraphError, match="damage table of 256 cells"):
        _richness_by_certificate(WEAK_BOUND_GRAPH, family, 2, Fraction(1, 2), 1820)


@pytest.mark.parametrize("family", [BFamily.default_for(18, 16, seed=1),
                                    BFamily(mode="all-of-size", size=1 << 16)],
                         ids=["sampled", "all-of-size"])
def test_extractor_over_table_cap_is_refused_before_drawing_the_family(monkeypatch,
                                                                       family):
    # 2^18 x 2^16 endpoint counts pass the cap whatever the family names.
    monkeypatch.setattr(verification, "_member_rows",
                        lambda *args: pytest.fail("drew the family"))
    g = SeededGraph(18, 16, 2, seed=1)
    with pytest.raises(GraphError, match=r"^endpoint-count table of 2\^18 x 2\^16 cells "
                                         "exceeds the table cap$"):
        check_prefix_extractor(g, Fraction(1, 2), family)


# -- the edge-density kernel against the per-set loop --------------------------

def reference_prefix_extractor(g, epsilon, family):
    """(checked, passed, worst error, failures) from one Fraction per set
    and prefix width, merging right nodes by shifting their values."""
    sets = sorted(set(family.iter_sets(g.n)))
    values = [neighbor_values(g, x) for x in range(1 << g.n)]
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


# -- the whole n = 4 exhaustive family against the incidence product ----------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exhaustive_extractor_matches_incidence_product(seed):
    # A pipeline-sized graph passes or barely fails; a low-degree table
    # graph and its split image fail at many sets, so failure lists fill up.
    rng = np.random.default_rng(seed)
    table = TableGraph(4, 3, rng.integers(0, 8, size=(16, 1 + seed), dtype=np.uint64))
    graphs = [build_random_graph(4, 2 + seed, Fraction(1, 8), 4, seed), table,
              split_edges(table, *SPLITS[1 + seed])]
    epsilons = [Fraction(0), Fraction(1, 100), Fraction(1, 40), Fraction(1, 8),
                Fraction(707, 1000)]
    ranges = [(1, None), (1, 16), (2, 5), (3, 12), (8, 16), (16, 16), (4, 4)]
    for g in graphs:
        for low, high in ranges:
            family = BFamily(mode="exhaustive", min_size=low, max_size=high)
            expected = incidence_prefix_extractor(g, family, epsilons)
            for epsilon in epsilons:
                report = check_prefix_extractor(g, epsilon, family)
                assert (report.checked, report.passed, report.worst_error,
                        report.failures) == expected[epsilon], (g, family, epsilon)


# -- sampled draws against the one-randrange-per-member loop --------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 1 << n))),
       st.integers(1, 8), st.integers(0, (1 << 64) - 1))
@example((6, 59), 2, 41)  # the first value past a 410-value block adds a member
def test_sampled_sets_match_seed_stream_draws(width_and_size, count, seed):
    n, size = width_and_size
    family = BFamily(mode="sampled", size=size, count=count, seed=seed)
    assert family._sampled_sets(n) == seed_stream_sampled_sets(family, n)
    assert list(family.iter_sets(n)) == sorted(set(seed_stream_sampled_sets(family, n)))


# -- listed families against the sorted-tuple path ----------------------------------

def family_sets(family, n):
    """Every set a family names, listed without the family's own code."""
    if family.mode == "sampled":
        return seed_stream_sampled_sets(family, n)
    return [B for size in listed_sizes(family, n) for B in combinations(range(1 << n), size)]


def sorted_tuple_size_groups(family, n):
    """(size, positions in sorted order, one row of members per set) per
    size, from every family's tuples deduplicated and sorted."""
    sets = sorted(set(family_sets(family, n)))
    sizes = np.array([len(B) for B in sets], dtype=np.int64)
    groups = []
    for size in np.unique(sizes).tolist():
        positions = np.flatnonzero(sizes == size)
        members = np.array([sets[i] for i in positions.tolist()], dtype=np.int32)
        groups.append((size, positions, members.reshape(-1, size)))
    return groups


@st.composite
def enumerable_families(draw, n):
    """Families of every mode, exhaustive ones over every size at n = 4 too."""
    N = 1 << n
    mode = draw(st.sampled_from(["exhaustive", "all-of-size", "sampled"]))
    if mode == "exhaustive":
        low = draw(st.integers(0, N + 1))
        high = draw(st.none() | st.integers(0, N + 1))
        return BFamily(mode="exhaustive", min_size=low, max_size=high)
    size = draw(st.integers(1, N))
    if mode == "all-of-size":
        return BFamily(mode="all-of-size", size=size)
    return BFamily(mode="sampled", size=size, count=draw(st.integers(1, 40)),
                   seed=draw(st.integers(0, 1000)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_size_groups_match_sorted_tuple_path(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 3))
    family = data.draw(enumerable_families(n))
    reference = sorted_tuple_size_groups(family, n)
    D = data.draw(st.integers(1, 4))
    hub = data.draw(st.booleans())
    if hub:
        g = all_to_one_graph(n, m, 0)
        g = TableGraph(n, m, np.repeat(g.table, D, axis=1))
    else:
        rows = data.draw(st.lists(
            st.lists(st.integers(0, (1 << m) - 1), min_size=D, max_size=D),
            min_size=1 << n, max_size=1 << n))
        g = TableGraph(n, m, np.array(rows, dtype=np.uint64))
    epsilon = data.draw(st.sampled_from([Fraction(0), Fraction(1, 4)]))
    if not reference:
        with pytest.raises(GraphError, match=f"names no set .* at width n={n}"):
            check_prefix_extractor(g, epsilon, family)
        return
    if family.mode != "exhaustive":  # listed as rows of members
        ((_, _, ref_members),) = reference
        members = verification._member_rows(family, n)
        assert members.dtype == np.int32
        assert np.array_equal(members, ref_members)
    # Positions were ranks in sorted tuple order: sorting the failures of
    # check_prefix_extractor by member tuple keeps the position order.
    counts = np.array([np.bincount(g.table[x].astype(np.int64), minlength=1 << m)
                       for x in range(1 << n)])
    expected = []
    for k_prime in range(1, m + 1):
        R = 1 << k_prime
        folded = counts.reshape(1 << n, R, -1).sum(axis=2)
        failing = []
        for size, positions, members in reference:
            if size < R:
                continue
            den = 2 * size * D * R
            devs = np.abs(folded[members].sum(axis=1) * R - size * D).sum(axis=1)
            failing += [(int(positions[b]), members[b].tolist(), Fraction(int(devs[b]), den))
                        for b in np.flatnonzero(devs * epsilon.denominator
                                                > epsilon.numerator * den)]
        expected += [{"k_prime": k_prime, "B_descriptor": _descr(B), "worst_error": str(err)}
                     for _, B, err in sorted(failing)]
    report = check_prefix_extractor(g, epsilon, family)
    assert report.failures == expected[:20]


def test_size_groups_keep_the_enumeration_limits():
    with pytest.raises(GraphError, match="not permitted"):
        check_prefix_extractor(complete_graph(5, 1), Fraction(1, 4),
                               BFamily(mode="exhaustive"))
    with pytest.raises(GraphError, match="cannot be enumerated"):
        check_prefix_extractor(complete_graph(6, 1), Fraction(1, 4),
                               BFamily(mode="all-of-size", size=8))


# -- listed families read only their members' rows ---------------------------------------

@pytest.mark.parametrize("make, family", [
    (lambda: SeededGraph(8, 3, 2, seed=6), BFamily(mode="sampled", size=8, count=20, seed=4)),
    (lambda: split_edges(SeededGraph(8, 2, 1, seed=2), *SPLITS[1]),
     BFamily(mode="sampled", size=16, count=30, seed=9)),
    (lambda: SeededGraph(3, 2, 1, seed=5), BFamily(mode="all-of-size", size=4)),
], ids=["sampled", "sampled-split", "all-of-size"])
def test_listed_families_count_only_their_members(monkeypatch, make, family):
    # The report is the one of the per-set loop over every node's rows, as
    # it was when the counts covered all 2^n nodes; the rows read are the
    # family's distinct members, each once.
    g = make()
    epsilons = [Fraction(0), Fraction(1, 4), Fraction(707, 1000)]
    expected = [reference_prefix_extractor(g, epsilon, family) for epsilon in epsilons]
    read = []
    base = g.base if isinstance(g, SplitGraph) else g
    rows = type(base).rows
    monkeypatch.setattr(type(base), "rows",
                        lambda self, xs: read.extend(np.asarray(xs).tolist()) or rows(self, xs))
    for epsilon, want in zip(epsilons, expected):
        read.clear()
        report = check_prefix_extractor(g, epsilon, family)
        assert (report.checked, report.passed, report.worst_error, report.failures) == want
        assert read == sorted(set().union(*family.iter_sets(g.n)))
    assert any(not want[1] for want in expected)  # some failures are listed


# -- row blocks under a low table cap ----------------------------------------------------

@pytest.mark.parametrize("make", [lambda: SeededGraph(4, 2, 3, seed=8),
                                  lambda: build_random_graph(4, 2, Fraction(1), 2, seed=8)],
                         ids=["seeded", "table"])
def test_row_blocks_under_a_low_cap_match_brute_force(monkeypatch, make):
    # A cap of 64 entries holds the 2^4 x 2^2 endpoint counts but not the
    # 2^4 x 8 edges: the counts read rows in blocks of 8 nodes, and so does
    # the seeded graph's payload check, with no edge table to build an
    # adjacency matrix from; the table graph's check reads its matrix.
    g = make()
    assert g.degree == 8
    monkeypatch.setattr(graphs, "TABLE_CAP", 64)
    monkeypatch.setattr(verification, "TABLE_CAP", 64)
    blocks = []
    rows = type(g).rows
    monkeypatch.setattr(type(g), "rows",
                        lambda self, xs: blocks.append(len(xs)) or rows(self, xs))
    counts = verification._endpoint_counts(g, np.arange(16))
    assert blocks == [8, 8]
    assert counts.tolist() == [[b_degree(g, z, [x]) for z in range(4)] for x in range(16)]
    xs = np.random.default_rng(3).integers(0, 16, size=37)
    for z in range(4):
        blocks.clear()
        bulk = g.payload_consistent_bulk(xs, z)
        assert blocks == ([8, 8, 8, 8, 5] if isinstance(g, SeededGraph) else [])
        assert bulk.tolist() == [b_degree(g, z, [int(x)]) > 0 for x in xs]
    family = BFamily(mode="all-of-size", size=4)
    expected = incidence_prefix_extractor(g, family, [Fraction(1, 8)])[Fraction(1, 8)]
    report = check_prefix_extractor(g, Fraction(1, 8), family)
    assert (report.checked, report.passed, report.worst_error, report.failures) == expected


def test_row_block_readers_release_each_block(monkeypatch):
    # 16 blocks of 256 nodes x 256 labels (512 KB each).  The payload check
    # and the endpoint counts each hold one block and its raw_block scratch
    # while the next is built; holding the previous block too read 3.0 and
    # 3.1 blocks (numpy 2.4.6).
    monkeypatch.setattr(graphs, "TABLE_CAP", 1 << 16)
    g = SeededGraph(12, 4, 8, seed=3)
    block = (1 << 16) * 8
    xs = np.arange(1 << 12)
    assert g._has_right is None  # no adjacency matrix: rows are read
    tracemalloc.start()
    try:
        g.payload_consistent_bulk(xs, 5)
        check_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        counts = verification._endpoint_counts(g, xs)
        counts_peak = tracemalloc.get_traced_memory()[1] - counts.nbytes
    finally:
        tracemalloc.stop()
    assert check_peak < 2.5 * block
    assert counts_peak < 2.5 * block
