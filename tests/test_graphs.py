import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from richowner import graphs
from richowner.bits import BitString
from richowner.construction import build_random_graph, construct_rich_owner_graph, split_edges
from richowner.crt import primes_first
from richowner.graphs import (
    TABLE_CAP,
    GraphError,
    SeededGraph,
    SplitGraph,
    TableGraph,
)
from richowner.verification import _damage, _good_slots

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
        with pytest.raises(GraphError, match="D=0"):
            TableGraph(1, 2, np.zeros((2, 0), dtype=np.uint64))  # no labels
        with pytest.raises(GraphError):
            build_random_graph(2, 4, Fraction(1, 2), 1, seed=0)  # k > n
        with pytest.raises(GraphError):
            construct_rich_owner_graph(2, 2, 2, seed=0)  # delta > 1


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

    def test_short_prime_list_must_be_the_primes_below_2n(self):
        # ell = 12 at n = 5: p_12 = 37 > 31, so the primes below 2^5 suffice
        g = SplitGraph(self.base(), primes_first(12, 32), 12)
        assert (g.ell, len(g.primes)) == (12, 11)
        for primes in ([2, 3, 5], primes_first(13), [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]):
            with pytest.raises(GraphError, match="neither the first ell=12"):
                SplitGraph(self.base(), primes, 12)

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
        assert bulk.tolist() == [payload in g.neighbor_values(x) for x in xs]

    def test_bulk_from_edge_table_at_width_17(self):
        # 2^(17+7) cells: the adjacency matrix is filled from the edge table.
        g = SeededGraph(17, 7, 1, seed=4)
        xs = np.random.default_rng(17).integers(0, 1 << 17, size=300)
        for payload in (g.neighbor_int(5, 0), g.neighbor_int(99_999, 1), 0, 127):
            bulk = g.payload_consistent_bulk(xs, payload)
            assert bulk.tolist() == [payload in g.neighbor_values(x) for x in xs]
        assert g._has_right.shape == (1 << 17, 1 << 7)

    def test_bulk_without_edge_table_checks_only_given_nodes(self, monkeypatch):
        # 2^(14+10) cells are within TABLE_CAP, but 2^(14+11) edges are not:
        # with no edge table to fill a matrix from, only the given nodes are
        # expanded, never all 2^14 of them.
        g = SeededGraph(14, 10, 11, seed=5)
        assert g.edge_table() is None and (1 << (g.n + g.m)) <= TABLE_CAP
        xs = np.random.default_rng(14).integers(0, 1 << 14, size=12)
        payloads = (g.neighbor_int(int(xs[0]), 0), 0, 1023)
        fresh = SeededGraph(14, 10, 11, seed=5)
        want = [[z in fresh.neighbor_values(x) for x in xs] for z in payloads]
        read = []
        rows = SeededGraph.rows

        def counted(self, nodes):
            read.extend(np.asarray(nodes).tolist())
            return rows(self, nodes)

        monkeypatch.setattr(SeededGraph, "rows", counted)
        got = [g.payload_consistent_bulk(xs, z).tolist() for z in payloads]
        assert got == want
        assert sorted(read) == sorted(xs.tolist() * len(payloads))
        assert {True, False} <= {v for row in want for v in row}
        assert g._has_right is None

    def test_bulk_over_matrix_cap_checks_node_by_node(self):
        # 2^(17+8) cells exceed TABLE_CAP: no adjacency matrix is built.
        g = SeededGraph(17, 8, 1, seed=4)
        xs = np.array([0, 5, 99_999, (1 << 17) - 1], dtype=np.int64)
        for payload in (g.neighbor_int(5, 0), g.neighbor_int(99_999, 1), 0):
            bulk = g.payload_consistent_bulk(xs, payload)
            assert bulk.tolist() == [payload in g.neighbor_values(x) for x in xs]
        assert g._has_right is None


# -- narrow edge tables ------------------------------------------------------------------

def test_random_graph_keeps_a_narrow_table_within_two_row_blocks():
    # 2^8 nodes x 2048 labels: the table is filled 32 rows (2^16 uint64
    # entries, 512 KB) at a time, and one block and its raw_block scratch
    # are held at once; a whole-table uint64 build held 16 times as much.
    block = (1 << 16) * 8
    tracemalloc.start()
    try:
        g = build_random_graph(8, 8, Fraction(1, 8), 4, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(g, TableGraph) and g.table.shape == (256, 2048)
    assert g.table.dtype == np.uint8
    assert peak < g.table.nbytes + 2.5 * block
    assert g.rows(np.array([0, 255])).dtype == np.uint64


def test_table_graph_ids_do_not_depend_on_the_stored_dtype():
    # Literals recorded while tables were stored as uint64: ids hash the
    # uint64 bytes of the table whatever its stored dtype.
    g = build_random_graph(8, 8, Fraction(1, 8), 4, seed=11)
    assert g.describe() == "table(n=8,m=8,D=2048,h=0d3273ff4da92503)"
    assert g.graph_id() == "0817360a9a5ca70c"
    table = np.random.default_rng(5).integers(0, 1 << 17, size=(8, 4), dtype=np.uint64)
    assert TableGraph(3, 17, table).graph_id() == "69d4c9083def693e"
    assert TableGraph(3, 17, table.astype(np.int64)).graph_id() == "69d4c9083def693e"


def test_table_graph_stores_entries_at_the_width_of_m():
    for m, dtype in ((2, np.uint8), (8, np.uint8), (9, np.uint16), (17, np.uint32),
                     (33, np.uint64)):
        table = np.random.default_rng(m).integers(0, 1 << m, size=(8, 4), dtype=np.uint64)
        g = TableGraph(3, m, table)
        assert g.table.dtype == dtype
        assert np.array_equal(g.rows(np.arange(8)), table)


def test_table_graph_refuses_entries_outside_the_right_width():
    with pytest.raises(GraphError, match="exceeds right width"):
        TableGraph(1, 8, np.array([[255], [256]], dtype=np.uint16))
    with pytest.raises(GraphError, match="exceeds right width"):
        TableGraph(1, 8, np.array([[0], [-1]]))  # checked before narrowing


# -- split payload checks read base rows of residue matches only ---------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_bulk_check_reads_only_residue_matches(data):
    # ell on both sides of pi(2^n), so short and full prime lists both occur
    n = data.draw(st.integers(1, 6))
    pi = len(primes_first(1 << n, 1 << n))
    ell = data.draw(st.integers(1, pi + 3))
    base = random_table_graph(n, data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)),
                              seed=data.draw(st.integers(0, 99)))
    base.__dict__["_has_right"] = None  # read rows, not the adjacency matrix
    read = []
    base.rows = lambda nodes: read.extend(nodes.tolist()) or TableGraph.rows(base, nodes)
    short = data.draw(st.booleans())
    g = SplitGraph(base, primes_first(ell, 1 << n), ell) if short else SplitGraph(
        base, primes_first(ell))
    full_primes = primes_first(ell).tolist()
    xs = np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12)),
                  dtype=np.int64)
    payloads = [g.neighbor_int(data.draw(st.integers(0, (1 << n) - 1)),
                               data.draw(st.integers(0, g.degree - 1))) for _ in range(3)]
    payloads += data.draw(st.lists(st.integers(0, (1 << g.m) - 1), max_size=3))
    for payload in payloads:
        read.clear()
        bulk = g.payload_consistent_bulk(xs, payload).tolist()
        i, residue, _ = g.parse_payload(payload)
        matches = [] if i >= ell else [x for x in xs.tolist() if x % full_primes[i] == residue]
        assert sorted(read) == sorted(matches)
        assert bulk == [payload in g.neighbor_values(x) for x in xs]


# -- primes below 2^n against the full prime list -----------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_primes_below_2n_match_full_prime_list(data):
    # ell on both sides of pi(2^n), the number of primes below 2^n
    n = data.draw(st.integers(1, 6))
    pi = len(primes_first(1 << n, 1 << n))
    ell = data.draw(st.integers(max(1, pi - 3), pi + 3))
    m, d = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1))
    base = random_table_graph(n, m, d, seed=data.draw(st.integers(0, 99)))
    short = SplitGraph(base, primes_first(ell, 1 << n), ell)
    full = SplitGraph(base, primes_first(ell))
    assert len(short.primes) == min(ell, pi)
    assert (short.m, short.degree, short.describe()) == (full.m, full.degree, full.describe())
    xs = np.arange(1 << n, dtype=np.int64)
    for x in range(1 << n):
        assert short.neighbor_values(x) == full.neighbor_values(x)
        assert ([short.neighbor_int(x, lab) for lab in range(short.degree)]
                == full.neighbor_values(x))
    payloads = [full.neighbor_int(data.draw(st.integers(0, (1 << n) - 1)),
                                  data.draw(st.integers(0, full.degree - 1)))
                for _ in range(3)]
    payloads += data.draw(st.lists(st.integers(0, (1 << full.m) - 1), max_size=3))
    for payload in payloads:
        bulk = full.payload_consistent_bulk(xs, payload)
        assert short.payload_consistent_bulk(xs, payload).tolist() == bulk.tolist()
        assert [payload in short.neighbor_values(x) for x in range(1 << n)] == bulk.tolist()
    members = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1,
                                       max_size=5)))
    for small, threshold in ((True, 1), (False, 1), (False, 2)):
        assert (_good_slots(short, members, small, threshold).tolist()
                == _good_slots(full, members, small, threshold).tolist())
    assert np.array_equal(_damage(short), _damage(full))


# -- the one bulk row accessor against neighbor_int -----------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rows_match_neighbor_int(data):
    kind = data.draw(st.sampled_from(["table", "seeded", "seeded-past-cap",
                                      "split-full", "split-below-2n"]))
    if kind == "seeded-past-cap":  # only a few of its rows are ever built
        n, d = data.draw(st.integers(20, 40)), data.draw(st.integers(5, 8))
        g = SeededGraph(n, data.draw(st.integers(1, 63)), d, seed=data.draw(st.integers(0, 99)))
        assert (1 << n) * g.degree > TABLE_CAP and g.edge_table() is None
    else:
        n, m, d = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5)),
                   data.draw(st.integers(0, 3)))
        seed = data.draw(st.integers(0, 99))
        g = random_table_graph(n, m, d, seed) if kind == "table" else SeededGraph(n, m, d, seed)
        if kind.startswith("split"):
            ell = data.draw(st.integers(1, 24))
            g = (SplitGraph(g, primes_first(ell)) if kind == "split-full"
                 else SplitGraph(g, primes_first(ell, 1 << n), ell))
    xs = data.draw(st.lists(st.integers(0, (1 << g.n) - 1), max_size=6))
    rows = g.rows(np.array(xs, dtype=np.int64))
    assert rows.shape == (len(xs), g.degree) and rows.dtype == np.uint64
    assert rows.tolist() == [[g.neighbor_int(x, lab) for lab in range(g.degree)] for x in xs]


def test_split_rows_refuse_past_64_bits():
    # 3 index bits + 30 residue bits + 32 base bits do not fit a uint64 entry
    g = SplitGraph(SeededGraph(30, 32, 0, seed=1), primes_first(8))
    assert g.m == 65 and g.neighbor_int(5, 7) >> 62 == 7
    with pytest.raises(GraphError, match="m=65"):
        g.rows(np.array([5]))


def test_seeded_graph_refuses_a_stream_index_past_64_bits():
    # at n=60, D=2^10 the uint64 index x*D + label wraps: nodes 3 and
    # 3 + 2^54 would share every edge
    with pytest.raises(GraphError, match=r"n=60, D=1024: n \+ log2 D = 70"):
        SeededGraph(60, 4, 10, seed=1)
    fits = SeededGraph(54, 4, 10, seed=1)  # n + log2 D = 64
    rows = fits.rows(np.array([3, 3 + (1 << 53)], dtype=np.uint64))
    assert rows[0].tolist() != rows[1].tolist()
    binning = SeededGraph(64, 4, 0, seed=1)  # the widest binning graph
    top = (1 << 64) - 1
    assert binning.neighbor_values(top) == [binning.neighbor_int(top, 0)]


def test_seeded_bulk_payload_check_makes_no_scalar_draws(monkeypatch):
    # 2^(16+16) adjacency cells exceed TABLE_CAP, so every node's row is read
    g = SeededGraph(16, 16, 0, seed=21)
    payload = g.neighbor_int(12_345, 0)
    owners = {x for x in range(1 << 16) if g.neighbor_int(x, 0) == payload}
    draws = []
    stream_value = graphs.stream_value
    monkeypatch.setattr(graphs, "stream_value",
                        lambda seed, index: draws.append(index) or stream_value(seed, index))
    bulk = g.payload_consistent_bulk(np.arange(1 << 16), payload)
    assert draws == [] and g._has_right is None
    assert set(np.flatnonzero(bulk).tolist()) == owners
