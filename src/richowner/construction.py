"""Graph construction pipeline: random build, verification, edge splitting.

The pipeline builds a random graph at right width k, verifies the prefix
edge-density property on a configurable family of left sets, retries with a
fresh seed on failure, and finally splits every edge through residue
fingerprints.  Exhaustive search over all graphs is replaced by
build-verify-retry, which gives the same guarantee at this scale in
feasible time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional

from . import verification
from .crt import primes_first
from .graphs import (
    TABLE_CAP,
    GraphError,
    LabeledBipartiteGraph,
    SeededGraph,
    SplitGraph,
    TableGraph,
)
from .rng import derive_seed


class ConstructionError(RuntimeError):
    """Verification kept failing; carries the worst observed violation."""

    def __init__(self, message: str, worst_violation=None):
        super().__init__(message)
        self.worst_violation = worst_violation


def next_pow2(x: int) -> int:
    if x < 1:
        return 1
    return 1 << (x - 1).bit_length()


def required_left_degree(n: int, epsilon: Fraction, c: int) -> int:
    """Smallest power of two >= c*n/epsilon^2."""
    need = math.ceil(Fraction(c * n) / (Fraction(epsilon) ** 2))
    return next_pow2(need)


def build_random_graph(n: int, k: int, epsilon, c: int, seed: int) -> LabeledBipartiteGraph:
    """Random graph on L={0,1}^n, R={0,1}^k with every edge drawn uniformly.

    The left degree is the smallest power of two >= c*n/epsilon^2 so labels
    are exact-width bit strings.  Small graphs materialize as edge tables;
    larger ones stay seeded and are evaluated on demand.
    """
    epsilon = Fraction(epsilon)
    if not 1 <= k <= n:
        raise GraphError(f"need 1 <= k <= n, got k={k} n={n}")
    if not 0 < epsilon <= 1:
        raise GraphError(f"epsilon must lie in (0, 1], got {epsilon}")
    if c < 1:
        raise GraphError(f"c must be >= 1, got {c}")
    D = required_left_degree(n, epsilon, c)
    g = SeededGraph(n, k, D.bit_length() - 1, seed)
    table = g.edge_table()
    return g if table is None else TableGraph(n, k, table)


def split_count(n: int, s: int, delta: Fraction) -> int:
    """Number of new edges per old edge: ell = ceil((1/delta) * s * n)."""
    return math.ceil(Fraction(s * n) / Fraction(delta))


def _check_split_count(ell: int) -> None:
    if ell > TABLE_CAP:
        raise GraphError(f"split count ell={ell} exceeds the cap of {TABLE_CAP} primes")


def split_edges(g: LabeledBipartiteGraph, s: int, delta) -> SplitGraph:
    """Fan each edge (x, z) out to ell residue-fingerprinted edges.

    The graph holds only the first ell primes that lie below 2^n: the
    residue of an n-bit value modulo any larger prime is the value itself.
    """
    delta = Fraction(delta)
    if s < 1:
        raise GraphError(f"split threshold must be >= 1, got {s}")
    if not 0 < delta <= 1:
        raise GraphError(f"delta must lie in (0, 1], got {delta}")
    ell = split_count(g.n, s, delta)
    _check_split_count(ell)
    return SplitGraph(g, primes_first(ell, 1 << g.n), ell)


@dataclass
class ConstructionReport:
    n: int
    k: int
    delta: Fraction
    epsilon: Fraction
    D: int
    ell: int
    gamma: int
    retries: int
    verified_B_count: int
    worst_violation: Optional[Fraction] = None
    attempts: list = field(default_factory=list)

    def as_record(self) -> str:
        """Flat key=value record, one field per line, attempts left out and
        None written as an empty value."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "attempts")
        return "\n".join(f"{name}={'' if value is None else value}" for name, value in values)


def construct_rich_owner_graph(
    n: int,
    k: int,
    delta,
    seed: int,
    max_retries: int = 10,
    c: int = 4,
) -> tuple[SplitGraph, ConstructionReport]:
    """Full pipeline: random graph at width k, verify, retry, then split.

    epsilon is derived as delta^2/2 so that delta = sqrt(2*epsilon).  The
    per-edge split threshold is s = ceil((2/delta^2) * D), the worst-case
    in-regime congestion of a verified graph.  Returns the split graph and
    a report recording the overhead gamma = m - k and verification stats.

    Retries draw fresh derived seeds; the first verified attempt (lowest
    retry index) wins, so fanning attempts across workers would give the
    same result.
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise GraphError(f"delta must lie in (0, 1], got {delta}")
    if not 1 <= k <= n:
        raise GraphError(f"need 1 <= k <= n, got k={k} n={n}")
    if max_retries < 0:
        raise GraphError(f"max_retries must be >= 0, got {max_retries}")
    epsilon = delta * delta / 2
    # an over-cap split is refused before any build: the degree, hence the
    # split threshold and count, is known up front (build_random_graph
    # draws every attempt at this degree)
    D = required_left_degree(n, epsilon, c)
    s = verification.large_regime_threshold(delta, 1 << k, D, k)  # |B| = 2^k
    _check_split_count(split_count(n, s, delta))
    family = verification.BFamily.default_for(n, k, seed=derive_seed(seed, "verify-family"))

    attempts = []
    for attempt in range(max_retries + 1):
        g = build_random_graph(n, k, epsilon, c, derive_seed(seed, "build", attempt))
        # looked up on the module, so a wrapper installed there sees the call
        report = verification.check_prefix_extractor(g, epsilon, family)
        attempts.append((attempt, report.passed, report.worst_error))
        if report.passed:
            split = split_edges(g, s, delta)
            return split, ConstructionReport(
                n=n, k=k, delta=delta, epsilon=epsilon, D=D, ell=split.ell,
                gamma=split.m - k, retries=attempt, verified_B_count=report.checked,
                worst_violation=report.worst_error, attempts=attempts,
            )
    worst = max((error for _, _, error in attempts if error is not None), default=None)
    raise ConstructionError(
        f"verification failed on {max_retries + 1} attempts (worst violation {worst})",
        worst_violation=worst,
    )
