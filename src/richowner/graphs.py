"""Labeled bipartite graphs: left set {0,1}^n, right set {0,1}^m.

Every left node carries the same number of outgoing labeled edges
(multi-edges allowed: several labels may land on one right node).  Graphs
come in three flavors:

* TableGraph   -- explicit edge table, exhaustively auditable.
* SeededGraph  -- per-edge counter hash, evaluated on demand.
* SplitGraph   -- each base edge fanned out through residue fingerprints.

`rows` is each flavor's one bulk accessor, the right nodes of given left
nodes by label: neighbor multisets, the edge table, payload checks and the
audits' endpoint counts all read it.

All graphs are immutable after construction; internal caches are populated
lazily and never change observable behavior, so instances are safe to share
across workers.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .bits import BitString
from .crt import primes_first
from .rng import blake2b, raw_block, stream_value

# Edge tables and adjacency matrices are built, and rows read in blocks, only
# up to this many entries.
TABLE_CAP = 1 << 24
# row_blocks refuses to expand absurdly wide multisets.
MULTISET_CAP = 1 << 22


class GraphError(ValueError):
    """Raised for width mismatches and malformed graph inputs."""


def _as_node(g: "LabeledBipartiteGraph", v, side: str = "left") -> int:
    """v, an int or a BitString, as a node of g's left side ({0,1}^n) or
    right side ({0,1}^m)."""
    name, width = ("n", g.n) if side == "left" else ("m", g.m)
    if isinstance(v, BitString):
        if v.width != width:
            raise GraphError(f"{side} node width {v.width} != {name}={width}")
        return v.value
    v = int(v)
    if not 0 <= v < (1 << width):
        raise GraphError(f"{side} node {v} out of range for {name}={width}")
    return v


def _right_dtype(m: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every m-bit right node."""
    return np.min_scalar_type((1 << min(m, 64)) - 1)


class LabeledBipartiteGraph:
    """Common behavior; subclasses implement neighbor_int, rows and
    describe."""

    n: int
    m: int
    degree: int

    def __init__(self, n: int, m: int, degree: int):
        if n < 1 or m < 1 or degree < 1:
            raise GraphError(f"need n, m and degree >= 1, got n={n} m={m} D={degree}")
        self.n = n
        self.m = m
        self.degree = degree

    # -- core lookup ------------------------------------------------------

    def neighbor_int(self, x: int, label: int) -> int:
        raise NotImplementedError

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """A new (len(xs), D) uint64 array: row j holds the right nodes of
        left node xs[j] by label, as neighbor_int gives them."""
        raise NotImplementedError

    def row_blocks(self, xs: np.ndarray):
        """(start, rows(xs[start:start + step])) for consecutive blocks of
        xs, each of at most min(TABLE_CAP, 2^16) entries (or one row);
        refuses a degree past MULTISET_CAP before it reads any row."""
        if self.degree > MULTISET_CAP:
            raise GraphError(f"degree {self.degree} too large to expand")
        step = max(1, min(TABLE_CAP, 1 << 16) // self.degree)
        return ((lo, self.rows(xs[lo:lo + step])) for lo in range(0, len(xs), step))

    def edge_table(self) -> Optional[np.ndarray]:
        """The (2^n, D) array of right-node values at the narrowest unsigned
        dtype that holds m bits, filled block by block; None past TABLE_CAP
        entries."""
        if (1 << self.n) * self.degree > TABLE_CAP:
            return None
        table = np.empty((1 << self.n, self.degree), dtype=_right_dtype(self.m))
        for lo, rows in self.row_blocks(np.arange(1 << self.n)):
            table[lo:lo + len(rows)] = rows
            del rows  # released before the next block is built
        return table

    # -- payload membership (decoder-facing) -------------------------------

    def payload_consistent(self, x, payload) -> bool:
        """True when the payload occurs in x's neighbor multiset: the bulk
        check of one node."""
        xs = np.array([_as_node(self, x)])
        return bool(self.payload_consistent_bulk(xs, payload)[0])

    def payload_consistent_bulk(self, xs: np.ndarray, payload) -> np.ndarray:
        """Whether the payload occurs in the neighbor multiset of each left
        node in xs.

        Reads the cached adjacency matrix when there is one, and otherwise
        the rows of just the given nodes, block by block.
        """
        zi = _as_node(self, payload, "right")
        if self._has_right is not None:
            return self._has_right[xs, zi]
        out = np.empty(len(xs), dtype=bool)
        for lo, rows in self.row_blocks(xs):
            np.any(rows == zi, axis=1, out=out[lo:lo + len(rows)])
            del rows  # released before the next block is built
        return out

    @cached_property
    def _has_right(self) -> Optional[np.ndarray]:
        """The 2^n x 2^m adjacency matrix, built from the edge table; None
        without an edge table or past TABLE_CAP cells."""
        if (1 << (self.n + self.m)) > TABLE_CAP:
            return None
        table = self.edge_table()
        if table is None:
            return None
        matrix = np.zeros((1 << self.n, 1 << self.m), dtype=bool)
        matrix[np.arange(1 << self.n)[:, None], table] = True
        return matrix

    def graph_id(self) -> str:
        h = blake2b(self.describe().encode(), digest_size=8)
        return h.hexdigest()


class TableGraph(LabeledBipartiteGraph):
    """Graph backed by an explicit (2^n, D) edge table, stored at the
    narrowest unsigned dtype that holds m bits."""

    def __init__(self, n: int, m: int, table: np.ndarray):
        table = np.asarray(table)
        if table.dtype.kind != "u":  # negative entries wrap past any width
            table = table.astype(np.uint64)
        if table.shape[0] != (1 << n):
            raise GraphError(f"table has {table.shape[0]} rows, expected 2^{n}")
        if table.size and int(table.max()) >= (1 << m):
            raise GraphError("table entry exceeds right width")
        super().__init__(n, m, int(table.shape[1]))
        self.table = table.astype(_right_dtype(m), copy=False)

    def neighbor_int(self, x: int, label: int) -> int:
        return int(self.table[x, label])

    def rows(self, xs: np.ndarray) -> np.ndarray:
        return self.table[xs].astype(np.uint64, copy=False)

    def edge_table(self) -> np.ndarray:
        return self.table

    def describe(self) -> str:
        """Hashes the table's uint64 bytes row block by row block, so the
        id does not depend on the stored dtype."""
        h = blake2b(digest_size=8)
        for _, rows in self.row_blocks(np.arange(1 << self.n)):
            h.update(rows)
        return f"table(n={self.n},m={self.m},D={self.degree},h={h.hexdigest()})"


class SeededGraph(LabeledBipartiteGraph):
    """Graph whose edges are a pure function of (seed, left node, label)."""

    def __init__(self, n: int, m: int, d: int, seed: int):
        if m > 63:
            raise GraphError("seeded graphs support right width up to 63 bits")
        if n + d > 64:  # distinct (x, label) pairs would share a stream index
            raise GraphError(f"seeded graph n={n}, D={1 << d}: n + log2 D = {n + d} "
                             f"exceeds the 64-bit stream index x*D + label")
        super().__init__(n, m, 1 << d)
        self.seed = seed

    def neighbor_int(self, x: int, label: int) -> int:
        return stream_value(self.seed, x * self.degree + label) >> (64 - self.m)

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """One raw_block over the stream indices x * D + label."""
        index = np.asarray(xs, dtype=np.uint64)[:, None] * np.uint64(self.degree)
        raw = raw_block(self.seed, index + np.arange(self.degree, dtype=np.uint64))
        raw >>= np.uint64(64 - self.m)
        return raw

    def describe(self) -> str:
        return f"seeded(n={self.n},m={self.m},D={self.degree},seed={self.seed})"


class SplitGraph(LabeledBipartiteGraph):
    """Residue-fingerprint fanout of a base graph.

    A base edge (x, z) with label y becomes ell edges labeled (y, i); the
    (y, i) edge lands on the right node encoding (i, x mod p_i, z) as
    fixed-width fields: ceil(log2 ell) bits of prime index, n bits of
    residue, then the base right node.  Labels are packed y-major:
    label = y * ell + i.

    `primes` is p_1..p_ell, or its leading primes that include every one
    below 2^n: an index i past the list names a prime above any n-bit x,
    so x mod p_i is x itself.  ell defaults to the length of the list.
    """

    def __init__(self, base: LabeledBipartiteGraph, primes: Sequence[int],
                 ell: Optional[int] = None):
        ell = len(primes) if ell is None else ell
        if ell < 1:
            raise GraphError("split needs at least one prime")
        if len(primes) > ell or (len(primes) < ell and not np.array_equal(
                primes, primes_first(ell, 1 << base.n))):
            raise GraphError(f"{len(primes)} primes are neither the first ell={ell} "
                             f"nor those of them below 2^{base.n}")
        m = (ell - 1).bit_length() + base.n + base.m
        super().__init__(base.n, m, base.degree * ell)
        self.base = base
        self.ell = ell
        self.primes = np.asarray(primes, dtype=np.int64)

    @property
    def k(self) -> int:
        return self.base.m

    def split_node(self, i, residue, z):
        """The right node of fields (i, residue, z), for ints or uint64
        arrays alike."""
        return (i << (self.n + self.k)) | (residue << self.k) | z

    def parse_payload(self, payload) -> tuple[int, int, int]:
        v = _as_node(self, payload, "right")
        z = v & ((1 << self.k) - 1)
        residue = (v >> self.k) & ((1 << self.n) - 1)
        i = v >> (self.n + self.k)
        return i, residue, z

    def _residue(self, x, i: int):
        """x mod p_i, for an int or an array of left nodes."""
        return x % int(self.primes[i]) if i < len(self.primes) else x

    def neighbor_int(self, x: int, label: int) -> int:
        y, i = divmod(label, self.ell)
        z = self.base.neighbor_int(x, y)
        return self.split_node(i, self._residue(x, i), z)

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """The base rows, each entry fanned out through split_node over the
        (i, x mod p_i) fields; p_i = 2^n past the stored primes leaves x
        itself."""
        if self.m > 64:
            raise GraphError(f"right width m={self.m} does not fit 64-bit rows")
        moduli = np.full(self.ell, 1 << self.n, dtype=np.uint64)
        moduli[:len(self.primes)] = self.primes
        residues = np.asarray(xs, dtype=np.uint64)[:, None, None] % moduli
        fanned = self.split_node(np.arange(self.ell, dtype=np.uint64), residues,
                                 self.base.rows(xs)[:, :, None])
        return fanned.reshape(len(xs), self.degree)

    def payload_consistent_bulk(self, xs: np.ndarray, payload) -> np.ndarray:
        i, residue, z = self.parse_payload(payload)
        if i >= self.ell:
            return np.zeros(len(xs), dtype=bool)
        ok = self._residue(xs, i) == residue
        ok[ok] = self.base.payload_consistent_bulk(xs[ok], z)  # residue matches only
        return ok

    def describe(self) -> str:
        return f"split(ell={self.ell},base={self.base.describe()})"

