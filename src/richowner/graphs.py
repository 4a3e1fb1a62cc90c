"""Labeled bipartite graphs: left set {0,1}^n, right set {0,1}^m.

Every left node carries the same number of outgoing labeled edges
(multi-edges allowed: several labels may land on one right node).  Graphs
come in three flavors:

* TableGraph   -- explicit edge table, exhaustively auditable.
* SeededGraph  -- per-edge counter hash, evaluated on demand.
* SplitGraph   -- each base edge fanned out through residue fingerprints.

`edge_table` is the one bulk accessor: the (2^n, D) table of right-node
values, or None for a graph that has none within TABLE_CAP entries.

All graphs are immutable after construction; internal caches are populated
lazily and never change observable behavior, so instances are safe to share
across workers.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from .bits import BitString
from .rng import raw_block, stream_value

# Edge tables and bulk adjacency matrices are materialized only up to this
# many entries.
TABLE_CAP = 1 << 24
# neighbor_values refuses to expand absurdly wide multisets.
MULTISET_CAP = 1 << 22


class GraphError(ValueError):
    """Raised for width mismatches and malformed graph inputs."""


def _as_left_int(g: "LabeledBipartiteGraph", x) -> int:
    if isinstance(x, BitString):
        if x.width != g.n:
            raise GraphError(f"left node width {x.width} != n={g.n}")
        return x.value
    x = int(x)
    if not 0 <= x < (1 << g.n):
        raise GraphError(f"left node {x} out of range for n={g.n}")
    return x


def _as_right_int(g: "LabeledBipartiteGraph", z) -> int:
    if isinstance(z, BitString):
        if z.width != g.m:
            raise GraphError(f"right node width {z.width} != m={g.m}")
        return z.value
    z = int(z)
    if not 0 <= z < (1 << g.m):
        raise GraphError(f"right node {z} out of range for m={g.m}")
    return z


class LabeledBipartiteGraph:
    """Common behavior; subclasses implement neighbor_int."""

    n: int
    m: int
    degree: int

    def __init__(self, n: int, m: int, degree: int):
        if n < 1 or m < 1:
            raise GraphError(f"need n >= 1 and m >= 1, got n={n} m={m}")
        self.n = n
        self.m = m
        self.degree = degree
        self._multiplicities: dict[int, Counter] = {}

    @property
    def d(self) -> Optional[int]:
        """Label width in bits when the degree is a power of two."""
        d = self.degree.bit_length() - 1
        return d if (1 << d) == self.degree else None

    # -- core lookup ------------------------------------------------------

    def neighbor_int(self, x: int, label: int) -> int:
        raise NotImplementedError

    def neighbor_values(self, x) -> list[int]:
        if self.degree > MULTISET_CAP:
            raise GraphError(f"degree {self.degree} too large to expand")
        xi = _as_left_int(self, x)
        return [self.neighbor_int(xi, lab) for lab in range(self.degree)]

    def edge_table(self) -> Optional[np.ndarray]:
        """The (2^n, D) array of right-node values: a table graph's own
        table, a seeded graph's within TABLE_CAP entries, None otherwise."""
        return None

    # -- degree queries ---------------------------------------------------

    def multiplicities(self, x) -> Counter:
        """Counter z -> number of labels from x landing on z (cached)."""
        xi = _as_left_int(self, x)
        cached = self._multiplicities.get(xi)
        if cached is None:
            cached = Counter(self.neighbor_values(xi))
            self._multiplicities[xi] = cached
        return cached

    # -- payload membership (decoder-facing) -------------------------------

    def payload_consistent(self, x, payload) -> bool:
        """True when the payload occurs in x's neighbor multiset."""
        xi = _as_left_int(self, x)
        zi = _as_right_int(self, payload)
        return zi in self.multiplicities(xi)

    def payload_consistent_bulk(self, xs: np.ndarray, payload) -> np.ndarray:
        """payload_consistent for every left node in xs.

        Reads a cached 2^n x 2^m adjacency matrix when it has at most
        TABLE_CAP cells, and checks node by node otherwise.
        """
        zi = _as_right_int(self, payload)
        if (1 << (self.n + self.m)) > TABLE_CAP:
            return np.fromiter((self.payload_consistent(int(x), zi) for x in xs),
                               dtype=bool, count=len(xs))
        mask = self._has_right_matrix()
        return mask[xs, zi]

    def _has_right_matrix(self) -> np.ndarray:
        cached = getattr(self, "_has_right", None)
        if cached is None:
            cached = np.zeros((1 << self.n, 1 << self.m), dtype=bool)
            table = self.edge_table()
            if table is not None:
                cached[np.arange(1 << self.n)[:, None], table] = True
            else:
                for x in range(1 << self.n):
                    cached[x, list(self.multiplicities(x))] = True
            self._has_right = cached
        return cached

    def graph_id(self) -> str:
        h = hashlib.blake2b(self.describe().encode(), digest_size=8)
        return h.hexdigest()

    def describe(self) -> str:
        return f"{type(self).__name__}(n={self.n},m={self.m},D={self.degree})"


class TableGraph(LabeledBipartiteGraph):
    """Graph backed by an explicit (2^n, D) edge table."""

    def __init__(self, n: int, m: int, table: np.ndarray,
                 seed: int = 0):
        table = np.asarray(table, dtype=np.uint64)
        if table.shape[0] != (1 << n):
            raise GraphError(f"table has {table.shape[0]} rows, expected 2^{n}")
        if table.size and int(table.max()) >= (1 << m):
            raise GraphError("table entry exceeds right width")
        super().__init__(n, m, int(table.shape[1]))
        self.table = table
        self.seed = seed

    def neighbor_int(self, x: int, label: int) -> int:
        return int(self.table[x, label])

    def neighbor_values(self, x) -> list[int]:
        xi = _as_left_int(self, x)
        return self.table[xi].tolist()

    def edge_table(self) -> np.ndarray:
        return self.table

    def describe(self) -> str:
        digest = hashlib.blake2b(self.table.tobytes(), digest_size=8).hexdigest()
        return f"table(n={self.n},m={self.m},D={self.degree},h={digest})"


class SeededGraph(LabeledBipartiteGraph):
    """Graph whose edges are a pure function of (seed, left node, label)."""

    def __init__(self, n: int, m: int, d: int, seed: int):
        if m > 63:
            raise GraphError("seeded graphs support right width up to 63 bits")
        super().__init__(n, m, 1 << d)
        self.seed = seed

    def neighbor_int(self, x: int, label: int) -> int:
        return stream_value(self.seed, x * self.degree + label) >> (64 - self.m)

    def edge_table(self) -> Optional[np.ndarray]:
        size = (1 << self.n) * self.degree
        if size > TABLE_CAP:
            return None
        raw = raw_block(self.seed, 0, size) >> np.uint64(64 - self.m)
        return raw.reshape(1 << self.n, self.degree)

    def to_table(self) -> TableGraph:
        table = self.edge_table()
        if table is None:
            raise GraphError(f"graph with {(1 << self.n) * self.degree} edges "
                             "exceeds table cap")
        return TableGraph(self.n, self.m, table, seed=self.seed)

    def describe(self) -> str:
        return f"seeded(n={self.n},m={self.m},D={self.degree},seed={self.seed})"


class SplitGraph(LabeledBipartiteGraph):
    """Residue-fingerprint fanout of a base graph.

    A base edge (x, z) with label y becomes ell edges labeled (y, i); the
    (y, i) edge lands on the right node encoding (i, x mod p_i, z) as
    fixed-width fields: ceil(log2 ell) bits of prime index, n bits of
    residue, then the base right node.  Labels are packed y-major:
    label = y * ell + i.
    """

    def __init__(self, base: LabeledBipartiteGraph, primes: Sequence[int]):
        ell = len(primes)
        if ell < 1:
            raise GraphError("split needs at least one prime")
        idx_bits = (ell - 1).bit_length()
        m = idx_bits + base.n + base.m
        super().__init__(base.n, m, base.degree * ell)
        self.base = base
        self.ell = ell
        self.idx_bits = idx_bits
        self.primes = np.asarray(primes, dtype=np.int64)

    @property
    def k(self) -> int:
        return self.base.m

    def split_node(self, i: int, residue: int, z: int) -> int:
        return (i << (self.n + self.k)) | (residue << self.k) | z

    def parse_payload(self, payload) -> tuple[int, int, int]:
        v = _as_right_int(self, payload)
        z = v & ((1 << self.k) - 1)
        residue = (v >> self.k) & ((1 << self.n) - 1)
        i = v >> (self.n + self.k)
        return i, residue, z

    def neighbor_int(self, x: int, label: int) -> int:
        y, i = divmod(label, self.ell)
        z = self.base.neighbor_int(x, y)
        return self.split_node(i, x % int(self.primes[i]), z)

    def neighbor_values(self, x) -> list[int]:
        if self.degree > MULTISET_CAP:
            raise GraphError(f"degree {self.degree} too large to expand")
        xi = _as_left_int(self, x)
        out = []
        for y in range(self.base.degree):
            z = self.base.neighbor_int(xi, y)
            for i in range(self.ell):
                out.append(self.split_node(i, xi % int(self.primes[i]), z))
        return out

    def payload_consistent(self, x, payload) -> bool:
        xi = _as_left_int(self, x)
        i, residue, z = self.parse_payload(payload)
        if i >= self.ell:
            return False
        return xi % int(self.primes[i]) == residue and z in self.base.multiplicities(xi)

    def payload_consistent_bulk(self, xs: np.ndarray, payload) -> np.ndarray:
        i, residue, z = self.parse_payload(payload)
        if i >= self.ell:
            return np.zeros(len(xs), dtype=bool)
        ok = (xs % int(self.primes[i])) == residue
        return ok & self.base.payload_consistent_bulk(xs, z)

    def describe(self) -> str:
        return f"split(ell={self.ell},base={self.base.describe()})"


# -- serialization -----------------------------------------------------------
#
# Format: ASCII header line "n m d kind seed", then for kind=table the
# 2^(n+d) right-node values in label-major order as little-endian records
# of ceil(m/8) bytes each.  Round-trips are bit-exact.

def save_graph(g: LabeledBipartiteGraph, path: str) -> None:
    if isinstance(g, TableGraph):
        kind, seed = "table", g.seed
    elif isinstance(g, SeededGraph):
        kind, seed = "seeded", g.seed
    else:
        raise GraphError(f"cannot serialize graph kind {type(g).__name__}")
    if g.d is None:
        raise GraphError("serialization requires a power-of-two degree")
    header = f"{g.n} {g.m} {g.d} {kind} {seed}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        if kind == "table":
            width_bytes = (g.m + 7) // 8
            flat = np.ascontiguousarray(g.table.T).reshape(-1)
            le = flat.astype("<u8").view(np.uint8).reshape(-1, 8)
            fh.write(le[:, :width_bytes].tobytes())


def load_graph(path: str) -> LabeledBipartiteGraph:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 5:
            raise GraphError(f"malformed graph header in {path}")
        n, m, d = int(header[0]), int(header[1]), int(header[2])
        kind, seed = header[3], int(header[4])
        if kind == "seeded":
            return SeededGraph(n, m, d, seed)
        if kind != "table":
            raise GraphError(f"unknown graph kind {kind!r}")
        width_bytes = (m + 7) // 8
        payload = fh.read()
    expected = (1 << (n + d)) * width_bytes
    if len(payload) != expected:
        raise GraphError(f"expected {expected} payload bytes, got {len(payload)}")
    rec = np.frombuffer(payload, dtype=np.uint8).reshape(-1, width_bytes)
    full = np.zeros((rec.shape[0], 8), dtype=np.uint8)
    full[:, :width_bytes] = rec
    flat = full.view("<u8").reshape(-1)
    table = flat.reshape(1 << d, 1 << n).T.copy()
    return TableGraph(n, m, table, seed=seed)
