import numpy as np
import pytest
from fractions import Fraction
from types import SimpleNamespace

from richowner import construction, verification
from richowner.construction import (
    ConstructionError,
    build_random_graph,
    construct_rich_owner_graph,
    required_left_degree,
    split_count,
    split_edges,
)
from richowner.crt import primes_first
from richowner.graphs import (
    TABLE_CAP,
    GraphError,
    LabeledBipartiteGraph,
    SplitGraph,
    TableGraph,
)
from richowner.rng import derive_seed
from richowner.verification import BFamily, rich_owner_fraction

from helpers import all_to_one_graph, b_degree, classify_owner, neighbor_values


class TestBuildRandomGraph:
    def test_degree_formula(self):
        assert required_left_degree(2, Fraction(1), 1) == 2
        assert required_left_degree(10, Fraction(1, 4), 4) == 1024

    def test_build_examples(self):
        g = build_random_graph(2, 1, Fraction(1), 1, seed=0)
        assert g.degree == 2 and g.m == 1
        g = build_random_graph(10, 6, Fraction(1, 4), 4, seed=0)
        assert g.degree == 1024 and g.m == 6

    def test_rebuild_is_byte_identical(self):
        g1 = build_random_graph(4, 2, Fraction(1, 2), 4, seed=42)
        g2 = build_random_graph(4, 2, Fraction(1, 2), 4, seed=42)
        assert isinstance(g1, TableGraph)
        assert np.array_equal(g1.table, g2.table)

    def test_parameter_validation(self):
        with pytest.raises(Exception):
            build_random_graph(4, 5, Fraction(1, 2), 4, seed=0)
        with pytest.raises(Exception):
            build_random_graph(4, 2, Fraction(3, 2), 4, seed=0)
        with pytest.raises(Exception):
            build_random_graph(4, 2, Fraction(1, 2), 0, seed=0)


class TestSplitEdges:
    def test_split_count(self):
        assert split_count(5, 2, Fraction(1)) == 10
        assert split_count(6, 2090, Fraction(7, 10)) == 17915

    def test_ownership_direction_preserved(self):
        # If a right node has b_degree 1 in the base graph, every split image
        # keeps b_degree 1.
        rng = np.random.default_rng(4)
        table = rng.integers(0, 8, size=(16, 4), dtype=np.uint64)
        base = TableGraph(4, 3, table)
        g = split_edges(base, s=1, delta=1)
        B = [2, 5, 11, 14]
        for z in range(8):
            if b_degree(base, z, B) != 1:
                continue
            owner = next(x for x in B if z in neighbor_values(base, x))
            for i in range(g.ell):
                node = g.split_node(i, owner % int(g.primes[i]), z)
                assert b_degree(g, node, B) == 1

    def test_rejects_bad_parameters(self):
        base = all_to_one_graph(3, 2, 1)
        with pytest.raises(Exception):
            split_edges(base, 0, Fraction(1, 2))
        with pytest.raises(Exception):
            split_edges(base, 1, Fraction(3, 2))

    def test_splits_share_one_read_only_prime_array(self):
        # ell = 24 at n = 3, but only the primes below 2^3 are sieved and held
        a, b = (split_edges(all_to_one_graph(3, 2, 1, hub=h), 4, Fraction(1, 2))
                for h in (0, 1))
        assert a.ell == b.ell == 24
        assert a.primes is b.primes is primes_first(24, 8)
        assert a.primes.tolist() == [2, 3, 5, 7]
        assert a.primes.dtype == np.int64 and not a.primes.flags.writeable

    def test_split_count_over_cap_raises_before_sieving(self, monkeypatch):
        def sieve(t):
            raise AssertionError(f"sieved {t} primes")

        monkeypatch.setattr(construction, "primes_first", sieve)
        base = all_to_one_graph(3, 2, 1)
        with pytest.raises(GraphError, match=f"ell={3 * TABLE_CAP}"):
            split_edges(base, TABLE_CAP, Fraction(1))

    def test_pipeline_hashes_no_graph(self, monkeypatch):
        # a graph id hashes the whole edge table; no construction output reads it
        def graph_id(self):
            raise AssertionError("hashed a graph")

        monkeypatch.setattr(LabeledBipartiteGraph, "graph_id", graph_id)
        construct_rich_owner_graph(4, 2, Fraction(1, 2), seed=1)

    @pytest.mark.parametrize("delta,ell", [(Fraction(1, 8), 2_684_354_560),
                                           (Fraction(1, 4), 20_971_520)])
    def test_pipeline_split_over_cap_raises(self, delta, ell):
        # The split would need ell primes; no base graph is built.
        with pytest.raises(GraphError, match=f"ell={ell}"):
            construct_rich_owner_graph(5, 3, delta, seed=1)

    def test_pipeline_split_over_cap_raises_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("built a base graph")

        monkeypatch.setattr(construction, "build_random_graph", build)
        with pytest.raises(GraphError, match="ell=2684354560"):
            construct_rich_owner_graph(5, 3, Fraction(1, 8), seed=1)


class TestPipeline:
    def test_construct_passes_exhaustive_small_audit(self):
        g, report = construct_rich_owner_graph(4, 2, Fraction(7, 10), seed=5)
        assert isinstance(g, SplitGraph)
        delta = Fraction(7, 10)
        family = BFamily(mode="exhaustive", max_size=4)
        audit = rich_owner_fraction(g, family, k=2, delta=delta)
        assert audit.passed
        assert audit.min_rich_fraction >= 1 - delta

    def test_report_overhead_bookkeeping(self):
        g, report = construct_rich_owner_graph(4, 2, Fraction(7, 10), seed=5)
        assert g.m == 2 + report.gamma
        assert report.epsilon == Fraction(7, 10) ** 2 / 2
        assert report.D == g.base.degree
        assert report.ell == g.ell
        record = report.as_record()
        assert "gamma=" in record and "worst_violation=" in record
        assert f"D={report.D}" in record

    def test_forced_failure_path(self, monkeypatch):
        # looked up on the module at call time, so the patch reaches the pipeline
        monkeypatch.setattr(construction, "build_random_graph",
                            lambda n, k, epsilon, c, seed: all_to_one_graph(n, k, 4))
        with pytest.raises(ConstructionError) as exc:
            construct_rich_owner_graph(4, 2, Fraction(1, 2), seed=0, max_retries=0)
        assert exc.value.worst_violation is not None

    def test_forced_failure_names_the_worst_attempt(self, monkeypatch):
        errors = iter([Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)])
        monkeypatch.setattr(verification, "check_prefix_extractor",
                            lambda g, epsilon, family: SimpleNamespace(
                                passed=False, worst_error=next(errors), checked=1))
        with pytest.raises(ConstructionError, match=r"3 attempts \(worst violation 1/2\)") as exc:
            construct_rich_owner_graph(4, 2, Fraction(1, 2), seed=0, max_retries=2)
        assert exc.value.worst_violation == Fraction(1, 2)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(GraphError, match="max_retries"):
            construct_rich_owner_graph(4, 2, Fraction(1, 2), seed=0, max_retries=-1)

    def test_desk_scale_success_rate(self):
        # n=6, k=3, delta=1/2: at least 9 of 10 master seeds succeed within
        # 10 retries.
        wins = 0
        for seed in range(10):
            try:
                construct_rich_owner_graph(6, 3, Fraction(1, 2),
                                           seed=derive_seed(100, seed))
                wins += 1
            except ConstructionError:
                pass
        assert wins >= 9

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_full_width_default_family_is_the_one_full_set(self, n, monkeypatch):
        family = BFamily.default_for(n, n, seed=3)
        assert list(family.iter_sets(n)) == [tuple(range(1 << n))]
        # 128 seeded draws of a size-2^n set all give the one full set, so
        # the audit, its set count and the retries match the sampled family.
        seed = derive_seed(41, n)
        sampled = BFamily(mode="sampled", size=1 << n, count=128,
                          seed=derive_seed(seed, "verify-family"))
        _, default = construct_rich_owner_graph(n, n, Fraction(1, 2), seed=seed)
        monkeypatch.setattr(BFamily, "default_for", lambda *args, **kwargs: sampled)
        _, explicit = construct_rich_owner_graph(n, n, Fraction(1, 2), seed=seed)
        assert default.verified_B_count == explicit.verified_B_count == n
        assert default.retries == explicit.retries

    def test_small_b_members_classified_rich(self):
        g, _ = construct_rich_owner_graph(4, 2, Fraction(7, 10), seed=5)
        for B in [(1, 2, 9, 12), (0, 3, 4, 7), (5, 6)]:
            for x in B:
                cls = classify_owner(g, B, x, k=2, delta=Fraction(7, 10))
                assert cls.regime == "small"
                assert cls.rich
