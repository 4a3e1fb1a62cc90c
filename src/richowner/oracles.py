"""Computable stand-ins for description complexity.

Two oracles drive the protocol.  The toy machine is a tiny concatenative
interpreter with program-length and step budgets, small enough that
shortest programs are found by exhaustive enumeration.  The counting
oracle assigns log-cardinalities of projections and fibers of an explicit
correlation set.  Both expose the same surface: seven-value profiles,
conditionals, and enumerable candidate sets.

The toy machine's instruction stream (big-endian bits):

  00  LITERAL  -- 4-bit length nibble, then that many raw bits to append
  01  REPEAT   -- double the current output component
  10  CONCAT   -- 4-bit index nibble; append that side/finished component
  11  END      -- finalize the current component, start a new one

A program is valid only if it parses exactly to its final bit.  The run
output is the list of finalized components plus the trailing one, so
multi-component outputs realize joint targets without an external pairing
encoding.  Literal overhead is 6 bits (opcode + length nibble).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .bits import BitString
from .specs import SCENARIOS, ConfigError, parse_spec

SUBSETS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
COORD_NAMES = "ABC"

LITERAL_HEADER_BITS = 6


def subset_key(subset) -> tuple[int, ...]:
    if isinstance(subset, str):
        subset = tuple("ABC".index(ch.upper()) for ch in subset)
    key = tuple(sorted(set(int(i) for i in subset)))
    if key not in SUBSETS:
        raise ValueError(f"not a coordinate subset: {subset!r}")
    return key


@dataclass(frozen=True)
class ComplexityProfile:
    """Seven joint values, one per non-empty coordinate subset.

    Censored subsets are those whose true value exceeded the oracle budget;
    they carry the budget floor (max_len + 1) so arithmetic stays total.
    """

    values: tuple[int, ...]
    censored: frozenset = frozenset()

    def __post_init__(self):
        if len(self.values) != 7:
            raise ValueError("profile needs exactly 7 values")

    def value(self, subset) -> int:
        return self.values[SUBSETS.index(subset_key(subset))]

    def conditional(self, V, W) -> int:
        """C(x_V | x_W) by subtraction: C(V u W) - C(W)."""
        V, W = subset_key(V), (subset_key(W) if W else ())
        if set(V) & set(W):
            raise ValueError("V and W must be disjoint")
        if not W:
            return self.value(V)
        union = subset_key(tuple(V) + tuple(W))
        return self.value(union) - self.value(W)

    def as_dict(self) -> dict[str, int]:
        return {
            "".join(COORD_NAMES[i] for i in s): v
            for s, v in zip(SUBSETS, self.values)
        }


# -- toy universal machine ----------------------------------------------------

@dataclass(frozen=True)
class ToyMachineConfig:
    max_len: int = 12     # program length budget L, in bits
    step_budget: int = 200


Component = tuple[int, int]  # (width, value)


def run_toy_program(program: int, nbits: int, side: tuple[Component, ...],
                    step_budget: int) -> Optional[tuple[Component, ...]]:
    """Execute one program; None if it is malformed or exceeds the budget."""
    pos = 0
    cur_w = 0
    cur_v = 0
    finished: list[Component] = []
    steps = 0
    n_side = len(side)
    while pos < nbits:
        if nbits - pos < 2:
            return None
        op = (program >> (nbits - pos - 2)) & 3
        pos += 2
        steps += 1
        if op == 0:  # LITERAL
            if nbits - pos < 4:
                return None
            ln = (program >> (nbits - pos - 4)) & 15
            pos += 4
            if nbits - pos < ln:
                return None
            if ln:
                payload = (program >> (nbits - pos - ln)) & ((1 << ln) - 1)
                pos += ln
                cur_v = (cur_v << ln) | payload
                cur_w += ln
                steps += ln
        elif op == 1:  # REPEAT
            cur_v = (cur_v << cur_w) | cur_v
            steps += cur_w
            cur_w *= 2
        elif op == 2:  # CONCAT
            if nbits - pos < 4:
                return None
            idx = (program >> (nbits - pos - 4)) & 15
            pos += 4
            if idx < n_side:
                w, v = side[idx]
            elif idx - n_side < len(finished):
                w, v = finished[idx - n_side]
            else:
                return None
            cur_v = (cur_v << w) | v
            cur_w += w
            steps += w
        else:  # END
            finished.append((cur_w, cur_v))
            cur_w = 0
            cur_v = 0
        if steps > step_budget:
            return None
    finished.append((cur_w, cur_v))
    return tuple(finished)


def _as_components(side) -> tuple[Component, ...]:
    if side is None:
        return ()
    if isinstance(side, BitString):
        return ((side.width, side.value),)
    return tuple((s.width, s.value) for s in side)


def _as_target(target) -> tuple[Component, ...]:
    if isinstance(target, BitString):
        return ((target.width, target.value),)
    return tuple((t.width, t.value) for t in target)


class ToyOracle:
    """Exhaustive shortest-program search under (L, T) budgets."""

    def __init__(self, cfg: ToyMachineConfig = ToyMachineConfig()):
        self.cfg = cfg
        self._tables: dict[tuple, dict] = {}

    def output_table(self, side: tuple[Component, ...]) -> Mapping[tuple, int]:
        """Minimal program length per producible output tuple."""
        table = self._tables.get(side)
        if table is None:
            table = {}
            budget = self.cfg.step_budget
            for length in range(self.cfg.max_len + 1):
                for program in range(1 << length):
                    out = run_toy_program(program, length, side, budget)
                    if out is not None and out not in table:
                        table[out] = length
            self._tables[side] = table
        return table

    def complexity(self, target, side=None) -> Optional[int]:
        """Min program length printing the target, or None beyond budgets."""
        return self.output_table(_as_components(side)).get(_as_target(target))

    def profile(self, triple: Sequence[BitString]) -> ComplexityProfile:
        values = []
        censored = set()
        for subset in SUBSETS:
            c = self.complexity(tuple(triple[i] for i in subset))
            if c is None:
                censored.add(subset)
                c = self.cfg.max_len + 1
            values.append(c)
        return ComplexityProfile(tuple(values), frozenset(censored))

    def conditional(self, V, W, triple: Sequence[BitString]) -> int:
        """Direct conditional: shortest program given the W strings as side."""
        V, W = subset_key(V), subset_key(W)
        target = tuple(triple[i] for i in V)
        side = tuple(triple[i] for i in W)
        c = self.complexity(target, side)
        return self.cfg.max_len + 1 if c is None else c

    def string_set(self, width: int, side=()) -> dict[BitString, int]:
        """All width-bit strings producible as single-component outputs.

        Side components wider than the target width can never appear inside
        a single short output, so they are dropped before the enumeration;
        the surviving program lengths are unchanged (index nibbles keep
        their width under renumbering).
        """
        comps = tuple(c for c in _as_components(side) if c[0] <= width)
        table = self.output_table(comps)
        out = {}
        for tup, ln in table.items():
            if len(tup) == 1 and tup[0][0] == width:
                key = BitString(width, tup[0][1])
                if key not in out or ln < out[key]:
                    out[key] = ln
        return out

    def candidates(self, n: int, known: Sequence[BitString],
                   payloads: Sequence[BitString], bound: int) -> list[BitString]:
        """Deterministic candidate list {x : C(x | side) <= bound}, capped."""
        if bound < 0:
            return []
        side = tuple(known) + tuple(payloads)
        found = self.string_set(n, side)
        items = sorted(
            (x for x, c in found.items() if c <= bound),
            key=lambda x: (found[x], x.value),
        )
        return items[: 1 << (bound + 1)]


# -- counting oracle over explicit correlation sets ----------------------------

class CorrelationSet:
    """Explicit S subset of ({0,1}^n)^3 with exact count and fiber queries."""

    def __init__(self, n: int, members):
        members = np.asarray(members, dtype=np.int64).reshape(-1, 3)
        if members.size == 0:
            raise ValueError("correlation set must be nonempty")
        if 3 * n > 63:
            raise ValueError(f"width n={n} too large: triples pack into 63 bits (n <= 21)")
        if members.min() < 0 or members.max() >= (1 << n):
            raise ValueError(f"member coordinate out of range for n={n}")
        self.n = n
        self.members = np.unique(members, axis=0)
        self._packed = (
            (self.members[:, 0] << (2 * n))
            | (self.members[:, 1] << n)
            | self.members[:, 2]
        )

    def __len__(self) -> int:
        return len(self.members)

    def contains(self, triple) -> bool:
        """Membership test; a coordinate outside [0, 2^n), or a BitString
        of another width, is never a member."""
        a, b, c = triple
        packed = 0
        for v in (a, b, c):
            if isinstance(v, BitString):
                if v.width != self.n:
                    return False
                v = v.value
            v = int(v)
            if not 0 <= v < (1 << self.n):
                return False
            packed = (packed << self.n) | v
        idx = np.searchsorted(self._packed, packed)
        return idx < len(self._packed) and self._packed[idx] == packed

    def triple_at(self, index: int) -> tuple[BitString, BitString, BitString]:
        return tuple(BitString(self.n, int(v)) for v in self.members[index])

    def _pack_proj(self, rows: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
        packed = rows[:, subset[0]].copy()
        for coord in subset[1:]:
            packed = (packed << self.n) | rows[:, coord]
        return packed

    def proj_count(self, subset) -> int:
        subset = subset_key(subset)
        return len(np.unique(self._pack_proj(self.members, subset)))

    @classmethod
    def from_file(cls, path: str, n: Optional[int]) -> "CorrelationSet":
        """Hex triples, one per line; n=None takes the width of the widest value."""
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"expected 3 hex fields per line, got {line!r}")
                rows.append([int(p, 16) for p in parts])
        if n is None:
            n = max(1, max((v for row in rows for v in row), default=0).bit_length())
        return cls(n, rows)

    @classmethod
    def diagonal(cls, n: int) -> "CorrelationSet":
        xs = np.arange(1 << n, dtype=np.int64)
        return cls(n, np.stack([xs, xs, xs], axis=1))

    @classmethod
    def cube(cls, n: int) -> "CorrelationSet":
        if n > 5:
            raise ValueError("full cube is materialized only up to n=5")
        xs = np.arange(1 << (3 * n), dtype=np.int64)
        mask = (1 << n) - 1
        return cls(n, np.stack([xs >> (2 * n), (xs >> n) & mask, xs & mask], axis=1))


def named_correlation_set(spec: str) -> CorrelationSet:
    """Sets by spec: collinear:q=Q, diagonal:n=N, cube:n=N, file:<path>."""
    kind, args = parse_spec(spec, SCENARIOS)
    if kind == "collinear":
        from .scenarios import collinear_members
        return CorrelationSet(2 * args["q"], collinear_members(args["q"]))
    if kind == "diagonal":
        return CorrelationSet.diagonal(args["n"])
    if kind == "cube":
        return CorrelationSet.cube(args["n"])
    if kind == "file":
        return CorrelationSet.from_file(args["path"], args["n"])
    raise ConfigError(f"scenario {spec!r} has no explicit member set")


class CountingOracle:
    """Log-cardinality oracle over an explicit correlation set.

    The profile is a property of the set, shared by all member triples;
    conditionals derive from the profile by subtraction, so the chain rule
    holds exactly.
    """

    def __init__(self, S: CorrelationSet):
        self.S = S

    def profile(self, triple=None) -> ComplexityProfile:
        if triple is not None and not self.S.contains(triple):
            raise ValueError("triple is not a member of the correlation set")
        return ComplexityProfile(
            tuple(max(self.S.proj_count(s) - 1, 0).bit_length() for s in SUBSETS)
        )

    def conditional(self, V, W, triple=None) -> int:
        return self.profile(triple).conditional(V, W)

    def candidates_rows(self, target: int, known: Mapping[int, BitString],
                        payload_conds: Sequence) -> np.ndarray:
        mask = np.ones(len(self.S.members), dtype=bool)
        for coord, value in known.items():
            mask &= self.S.members[:, coord] == value.value
        for coord, payload, graph in payload_conds:
            mask &= graph.payload_consistent_bulk(self.S.members[:, coord], payload)
        return np.unique(self.S.members[mask, target])

    def candidates(self, target: int, known: Mapping[int, BitString],
                   payload_conds: Sequence, bound: int) -> list[BitString]:
        """Fiber projections consistent with the conditioning, bound-gated.

        Every fiber member shares the fiber's log-cardinality, so the set is
        empty whenever that exceeds the bound.
        """
        if bound < 0:
            return []
        values = self.candidates_rows(target, known, payload_conds)
        if len(values) == 0:
            return []
        if max(len(values) - 1, 0).bit_length() > bound:
            return []
        out = [BitString(self.S.n, int(v)) for v in values]
        return out[: 1 << (bound + 1)]


# -- shared operations ----------------------------------------------------------

def chain_rule_slack(oracle: ToyOracle | CountingOracle, triple) -> int:
    """Worst |C(V u W) - C(W) - C(x_V | x_W)| over disjoint non-empty V, W.

    Identically 0 for the counting oracle, whose conditionals are defined
    by subtraction; measured for the toy machine.
    """
    profile = oracle.profile(triple)
    worst = 0
    for V in SUBSETS:
        for W in SUBSETS:
            if set(V) & set(W):
                continue
            union = subset_key(tuple(V) + tuple(W))
            cond = oracle.conditional(V, W, triple)
            gap = abs(profile.value(union) - profile.value(W) - cond)
            worst = max(worst, gap)
    return worst
