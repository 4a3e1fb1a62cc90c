"""Helpers shared by the tests.

Small fixed graphs, a bit-string literal, the B-degree of a right node,
and a scalar GF(2^q) reference (field elements, the collinearity
determinant, a collinear-triple sampler) that the vectorised geometry in
`richowner.scenarios` is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from richowner.bits import BitString
from richowner.graphs import TableGraph
from richowner.rng import SeedStream, derive_seed
from richowner.scenarios import IRREDUCIBLE


def bs(bits: str) -> BitString:
    """Shorthand constructor from a literal like bs('0110')."""
    return BitString.from_bits(bits)


# -- fixed graphs ---------------------------------------------------------------

def complete_graph(n: int, m: int) -> TableGraph:
    """Each left node has one edge to every right node: label y lands on y."""
    table = np.tile(np.arange(1 << m, dtype=np.uint64), (1 << n, 1))
    return TableGraph(n, m, table)


def all_to_one_graph(n: int, m: int, d: int, hub: int = 0) -> TableGraph:
    """Every edge lands on the hub right node."""
    table = np.full((1 << n, 1 << d), hub, dtype=np.uint64)
    return TableGraph(n, m, table)


def b_degree(g, z: int, B) -> int:
    """Edges from members of B landing on z, counted with multiplicity."""
    return sum(g.multiplicities(x)[z] for x in B)


# -- scalar GF(2^q) reference ---------------------------------------------------

class FieldError(ValueError):
    pass


def _poly_for(q: int) -> int:
    try:
        return IRREDUCIBLE[q]
    except KeyError:
        raise FieldError(f"no fixed irreducible polynomial for q={q}") from None


@dataclass(frozen=True)
class FieldElement:
    q: int
    value: int

    def __post_init__(self):
        _poly_for(self.q)
        if not 0 <= self.value < (1 << self.q):
            raise FieldError(f"value {self.value} out of range for GF(2^{self.q})")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.q, self.value ^ other.value)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return gf_mul(self, other)

    def _check(self, other: "FieldElement"):
        if self.q != other.q:
            raise FieldError(f"mixed fields GF(2^{self.q}) and GF(2^{other.q})")


def gf_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Carry-less product reduced by the fixed irreducible polynomial."""
    a._check(b)
    poly = _poly_for(a.q)
    x, y, res = a.value, b.value, 0
    top = 1 << a.q
    while y:
        if y & 1:
            res ^= x
        y >>= 1
        x <<= 1
        if x & top:
            x ^= poly
    return FieldElement(a.q, res)


Point = tuple[FieldElement, FieldElement]


def is_collinear(a: Point, b: Point, c: Point) -> bool:
    """Determinant test (b - a) x (c - a) = 0 in the field."""
    lhs = gf_mul(b[0] + a[0], c[1] + a[1])
    rhs = gf_mul(b[1] + a[1], c[0] + a[0])
    return lhs.value == rhs.value


def point_to_int(p: Point) -> int:
    return (p[0].value << p[0].q) | p[1].value


def int_to_point(v: int, q: int) -> Point:
    return (FieldElement(q, v >> q), FieldElement(q, v & ((1 << q) - 1)))


def sample_collinear_triple(q: int, seed: int) -> tuple[Point, Point, Point]:
    """Uniform ordered triple of pairwise-distinct collinear points."""
    if q < 2:
        raise FieldError("need q >= 2 for three distinct points on a line")
    Q = 1 << q
    stream = SeedStream(derive_seed(seed, "collinear"))
    a = stream.randrange(Q * Q)
    b = stream.randrange(Q * Q - 1)
    if b >= a:
        b += 1
    pa, pb = int_to_point(a, q), int_to_point(b, q)
    # c = a + t*(b - a) for t outside {0, 1} walks the remaining line points.
    t = FieldElement(q, 2 + stream.randrange(Q - 2))
    dx, dy = pb[0] + pa[0], pb[1] + pa[1]
    pc = (pa[0] + gf_mul(t, dx), pa[1] + gf_mul(t, dy))
    return pa, pb, pc
