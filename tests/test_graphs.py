from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from richowner.bits import BitString
from richowner.construction import build_random_graph, construct_rich_owner_graph, split_edges
from richowner.crt import primes_first
from richowner.graphs import (
    GraphError,
    SeededGraph,
    SplitGraph,
    TableGraph,
    load_graph,
    save_graph,
)

from helpers import all_to_one_graph, b_degree, bs, complete_graph


def random_table_graph(n, m, d, seed):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << m, size=(1 << n, 1 << d), dtype=np.uint64)
    return TableGraph(n, m, table)


class TestNeighbor:
    def test_complete_graph_identity_on_label(self):
        g = complete_graph(2, 2)
        assert g.neighbor_int(0b01, 0b10) == 0b10
        assert g.neighbor_values(bs("01")) == [0, 1, 2, 3]

    def test_explicit_table_lookup(self):
        table = np.array([[1, 1], [0, 2]], dtype=np.uint64)
        g = TableGraph(1, 2, table)
        assert g.neighbor_int(0, 1) == 1
        assert g.neighbor_values(bs("1")) == [0, 2]

    def test_seeded_replay(self):
        g = SeededGraph(6, 4, 5, seed=2024)
        replay = SeededGraph(6, 4, 5, seed=2024)
        for x in (0, 17, 63):
            for y in (0, 13, 31):
                assert g.neighbor_int(x, y) == replay.neighbor_int(x, y)

    def test_width_mismatch_rejected(self):
        g = complete_graph(2, 2)
        with pytest.raises(GraphError):
            g.neighbor_values(bs("011"))
        with pytest.raises(GraphError):
            g.neighbor_values(4)
        with pytest.raises(GraphError):
            g.payload_consistent(bs("01"), bs("011"))
        with pytest.raises(GraphError):
            g.payload_consistent(bs("01"), 4)


def neighbors_multiset(g, x) -> Counter:
    return Counter(BitString(g.m, v) for v in g.neighbor_values(x))


class TestNeighborsMultiset:
    def test_degree_one_singleton(self):
        g = random_table_graph(2, 3, 0, seed=1)
        for x in range(4):
            ms = neighbors_multiset(g, x)
            assert sum(ms.values()) == 1

    def test_all_to_one_multiplicity(self):
        g = all_to_one_graph(2, 2, 2)
        assert neighbors_multiset(g, bs("01")) == {BitString(2, 0): 4}

    def test_cardinality_equals_degree(self):
        g = random_table_graph(3, 2, 4, seed=5)
        for x in range(8):
            assert sum(neighbors_multiset(g, x).values()) == g.degree


class TestBDegree:
    def test_empty_b(self):
        g = random_table_graph(3, 2, 2, seed=9)
        assert all(b_degree(g, z, []) == 0 for z in range(4))

    def test_all_to_one_counts_multiplicity(self):
        g = all_to_one_graph(2, 2, 1)
        assert b_degree(g, 0, [0, 1, 2]) == 6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_handshake_identity(self, seed):
        g = random_table_graph(4, 3, 3, seed=seed)
        B = [1, 4, 7, 9, 15]
        assert sum(b_degree(g, z, B) for z in range(8)) == len(B) * g.degree


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 7), max_size=8, unique=True),
       st.sampled_from([None, (1, Fraction(1)), (1, Fraction(1, 2)),
                        (2, Fraction(1)), (2, Fraction(1, 2))]))
def test_handshake_property(seed, B, split):
    g = random_table_graph(3, 2, 2, seed=seed)
    if split is not None:
        g = split_edges(g, *split)
    assert sum(b_degree(g, z, B) for z in range(1 << g.m)) == len(B) * g.degree


class TestParams:
    def test_invariants(self):
        assert build_random_graph(4, 3, Fraction(1, 2), 1, seed=0).m == 3
        with pytest.raises(GraphError):
            SeededGraph(0, 3, 1, seed=0)  # n < 1
        with pytest.raises(GraphError):
            TableGraph(1, 0, np.zeros((2, 1), dtype=np.uint64))  # m < 1
        with pytest.raises(GraphError):
            build_random_graph(2, 4, Fraction(1, 2), 1, seed=0)  # k > n
        with pytest.raises(GraphError):
            construct_rich_owner_graph(2, 2, 2, seed=0)  # delta > 1


class TestSerialization:
    @pytest.mark.parametrize("m", [2, 7, 8, 9, 17])
    def test_table_round_trip_bit_exact(self, tmp_path, m):
        g = random_table_graph(3, m, 2, seed=m)
        path = tmp_path / "g.bin"
        save_graph(g, str(path))
        loaded = load_graph(str(path))
        assert isinstance(loaded, TableGraph)
        assert loaded.n == g.n and loaded.m == g.m and loaded.degree == g.degree
        assert np.array_equal(loaded.table, g.table)

    def test_seeded_round_trip(self, tmp_path):
        g = SeededGraph(5, 9, 3, seed=77)
        path = tmp_path / "g.bin"
        save_graph(g, str(path))
        loaded = load_graph(str(path))
        assert isinstance(loaded, SeededGraph) and loaded.seed == 77
        assert loaded.neighbor_int(19, 5) == g.neighbor_int(19, 5)

    def test_label_major_layout(self, tmp_path):
        # n=1, m=8, d=1: records are single bytes; label-major means
        # [x0y0, x1y0, x0y1, x1y1].
        table = np.array([[10, 20], [30, 40]], dtype=np.uint64)
        g = TableGraph(1, 8, table)
        path = tmp_path / "g.bin"
        save_graph(g, str(path))
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        assert header == b"1 8 1 table 0"
        assert list(payload) == [10, 30, 20, 40]

    def test_header_and_payload_size(self, tmp_path):
        g = random_table_graph(2, 9, 1, seed=3)
        path = tmp_path / "g.bin"
        save_graph(g, str(path))
        raw = path.read_bytes()
        _, payload = raw.split(b"\n", 1)
        assert len(payload) == (1 << (2 + 1)) * 2  # ceil(9/8) = 2 bytes each


class TestSplitGraph:
    def base(self):
        table = np.array(
            [[z % 4 for z in range(4)]] * 32, dtype=np.uint64
        )
        return TableGraph(5, 2, table)

    def test_node_encoding_and_residues(self):
        # ell=2 split: x=5 edges land on (index 0, 5 mod 2, z) and (index 1, 5 mod 3, z)
        g = SplitGraph(self.base(), primes_first(2))
        z = g.base.neighbor_int(5, 2)
        assert g.neighbor_int(5, 2 * 2 + 0) == g.split_node(0, 1, z)
        assert g.neighbor_int(5, 2 * 2 + 1) == g.split_node(1, 2, z)
        i, r, z2 = g.parse_payload(g.neighbor_int(5, 2 * 2 + 1))
        assert (i, r, z2) == (1, 2, z)

    def test_zero_residues(self):
        g = SplitGraph(self.base(), primes_first(3))
        for lab in range(g.degree):
            i, r, _ = g.parse_payload(g.neighbor_int(0, lab))
            assert r == 0

    def test_degree_bookkeeping(self):
        base = self.base()
        g = split_edges(base, s=2, delta=1)  # ell = ceil(2*5/1) = 10
        assert g.ell == 10
        assert g.degree == base.degree * 10

    def test_collision_fraction_bounded(self):
        # Distinct left values sharing a base node collide on at most n of the
        # ell prime indices (exhaustively checked at n=8).
        n = 8
        base = TableGraph(n, 1, np.zeros((1 << n, 1), dtype=np.uint64))
        g = split_edges(base, s=4, delta=1)  # ell = 32
        primes = g.primes
        for x1, x2 in [(5, 201), (0, 255), (173, 174), (128, 64)]:
            collisions = sum(
                1 for p in primes if x1 % int(p) == x2 % int(p)
            )
            assert collisions <= n
            assert collisions / g.ell <= n / g.ell

    def test_payload_consistency_matches_multiset(self):
        base = random_table_graph(4, 2, 2, seed=8)
        g = split_edges(base, s=1, delta=1)  # small ell = 4
        for x in range(16):
            values = set(g.neighbor_values(x))
            for payload in values:
                assert g.payload_consistent(x, payload)
            other = (set(range(1 << g.m)) - values)
            for payload in list(sorted(other))[:5]:
                assert not g.payload_consistent(x, payload)

    def test_bulk_matches_scalar(self):
        base = random_table_graph(4, 2, 2, seed=13)
        g = split_edges(base, s=1, delta=1)
        xs = np.arange(16, dtype=np.int64)
        payload = g.neighbor_int(7, 3)
        bulk = g.payload_consistent_bulk(xs, payload)
        scalar = [g.payload_consistent(int(x), payload) for x in xs]
        assert bulk.tolist() == scalar

    def test_bulk_from_edge_table_at_width_17(self):
        # 2^(17+7) cells: the adjacency matrix is filled from the edge table.
        g = SeededGraph(17, 7, 1, seed=4)
        xs = np.random.default_rng(17).integers(0, 1 << 17, size=300)
        for payload in (g.neighbor_int(5, 0), g.neighbor_int(99_999, 1), 0, 127):
            bulk = g.payload_consistent_bulk(xs, payload)
            assert bulk.tolist() == [g.payload_consistent(int(x), payload) for x in xs]
        assert g._has_right.shape == (1 << 17, 1 << 7)

    def test_matrix_without_edge_table_matches_neighbor_sets(self):
        g = split_edges(random_table_graph(3, 1, 1, seed=2), s=1, delta=1)
        assert g.edge_table() is None
        matrix = g._has_right_matrix()
        for x in range(8):
            assert set(np.flatnonzero(matrix[x]).tolist()) == set(g.neighbor_values(x))

    def test_bulk_over_matrix_cap_checks_node_by_node(self):
        # 2^(17+8) cells exceed TABLE_CAP: no adjacency matrix is built.
        g = SeededGraph(17, 8, 1, seed=4)
        xs = np.array([0, 5, 99_999, (1 << 17) - 1], dtype=np.int64)
        for payload in (g.neighbor_int(5, 0), g.neighbor_int(99_999, 1), 0):
            bulk = g.payload_consistent_bulk(xs, payload)
            assert bulk.tolist() == [g.payload_consistent(int(x), payload) for x in xs]
        assert not hasattr(g, "_has_right")
