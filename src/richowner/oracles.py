"""Computable stand-ins for description complexity.

Two oracles drive the protocol.  The toy machine is a tiny concatenative
interpreter with program-length and step budgets, small enough that
shortest programs are found exhaustively: one depth-first walk over the
instruction sequences within the budgets gives the minimal program length
of every output, once per side input.  The counting
oracle assigns log-cardinalities of projections and fibers of an explicit
correlation set; its profile is computed once per set, on first use.  Both
expose the same surface: seven-value profiles, conditionals, and candidate
sets as int64 arrays of string values, from one `candidates` signature.
This module answers queries only: the named sets that scenario specs
describe are built in `richowner.scenarios`.

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
from .specs import ConfigError

SENDERS = "ABC"  # one letter per coordinate
SUBSETS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
# one per entry of SUBSETS: its name and its complement
SUBSET_NAMES = tuple("".join(SENDERS[i] for i in V) for V in SUBSETS)
COMPLEMENTS = tuple(tuple(i for i in range(3) if i not in V) for V in SUBSETS)


@dataclass(frozen=True)
class ComplexityProfile:
    """Seven joint values, one per non-empty coordinate subset.

    A subset whose true value exceeded the oracle budget carries the budget
    floor (max_len + 1), so arithmetic stays total.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != 7:
            raise ValueError("profile needs exactly 7 values")

    def conditionals(self) -> dict[tuple[int, ...], int]:
        """C(x_V | x_complement) = C(ABC) - C(complement) for every
        non-empty V, with C of the empty complement 0."""
        values = {(): 0, **dict(zip(SUBSETS, self.values))}
        return {V: self.values[6] - values[W] for V, W in zip(SUBSETS, COMPLEMENTS)}

    def as_dict(self) -> dict[str, int]:
        return dict(zip(SUBSET_NAMES, self.values))


# -- toy universal machine ----------------------------------------------------

@dataclass(frozen=True)
class ToyMachineConfig:
    max_len: int = 12     # program length budget L, in bits
    step_budget: int = 200  # step budget T

    def __post_init__(self):
        for key, value in (("L", self.max_len), ("T", self.step_budget)):
            if value < 0:
                raise ConfigError(f"toy budget {key!r}: must be >= 0, got {value}")


Component = tuple[int, int]  # (width, value)


def _toy_outputs(side: tuple[Component, ...], max_len: int,
                 step_budget: int) -> dict[tuple[Component, ...], int]:
    """Minimal program length per output tuple, over every valid program of
    at most max_len bits that stays within the step budget.

    A valid program parses into whole instructions, so the programs are
    walked as instruction sequences, depth first from a shared prefix
    state: bits used, finished components, current component and steps.
    A prefix is dropped once its steps pass the budget: steps only grow,
    so every extension of it would fail too.
    """
    table: dict[tuple[Component, ...], int] = {}

    def walk(pos: int, finished: tuple, cur_w: int, cur_v: int, steps: int):
        out = finished + ((cur_w, cur_v),)
        if table.get(out, max_len + 1) > pos:
            table[out] = pos
        room = max_len - pos
        if room < 2 or steps >= step_budget:  # every instruction costs a step
            return
        if steps + 1 + cur_w <= step_budget:  # REPEAT
            walk(pos + 2, finished, 2 * cur_w, (cur_v << cur_w) | cur_v,
                 steps + 1 + cur_w)
        walk(pos + 2, out, 0, 0, steps + 1)  # END
        if room < 6:
            return
        for w, v in (side + finished)[:16]:  # CONCAT, by index nibble
            if steps + 1 + w <= step_budget:
                walk(pos + 6, finished, cur_w + w, (cur_v << w) | v, steps + 1 + w)
        for ln in range(min(15, room - 6, step_budget - steps - 1) + 1):  # LITERAL
            for payload in range(1 << ln):
                walk(pos + 6 + ln, finished, cur_w + ln, (cur_v << ln) | payload,
                     steps + 1 + ln)

    walk(0, (), 0, 0, 0)
    return table


def _as_components(side) -> tuple[Component, ...]:
    if side is None:
        return ()
    if isinstance(side, BitString):
        return ((side.width, side.value),)
    return tuple((s.width, s.value) for s in side)


class ToyOracle:
    """Shortest-program search under (L, T) budgets, one output table per
    side input, built on first use."""

    def __init__(self, cfg: ToyMachineConfig = ToyMachineConfig()):
        self.cfg = cfg
        self._tables: dict[tuple, dict] = {}
        self._sorted: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def output_table(self, side: tuple[Component, ...]) -> Mapping[tuple, int]:
        """Minimal program length per producible output tuple."""
        table = self._tables.get(side)
        if table is None:
            table = _toy_outputs(side, self.cfg.max_len, self.cfg.step_budget)
            self._tables[side] = table
        return table

    def complexity(self, target, side=None) -> Optional[int]:
        """Min program length printing the target, or None beyond budgets."""
        return self.output_table(_as_components(side)).get(_as_components(target))

    def _censored(self, triple: Sequence[BitString], V, W=()) -> int:
        """C(x_V | x_W), the W strings as side input, or the budget floor
        L + 1 beyond the budgets."""
        c = self.complexity(tuple(triple[i] for i in V), tuple(triple[i] for i in W))
        return self.cfg.max_len + 1 if c is None else c

    def profile(self, triple: Sequence[BitString]) -> ComplexityProfile:
        return ComplexityProfile(tuple(self._censored(triple, V) for V in SUBSETS))

    def conditionals(self, triple: Sequence[BitString],
                     profile: Optional[ComplexityProfile] = None) -> dict[tuple[int, ...], int]:
        """C(x_V | x_complement) for every non-empty V: each proper one
        measured with the complement strings as side input, C(ABC) read off
        the profile (self.profile(triple) unless given)."""
        out = {V: self._censored(triple, V, W) for V, W in zip(SUBSETS, COMPLEMENTS) if W}
        out[SUBSETS[6]] = (profile or self.profile(triple)).values[6]
        return out

    def _strings(self, width: int, side) -> tuple[np.ndarray, np.ndarray]:
        """Program lengths and values of all width-bit strings producible
        as single-component outputs, as two read-only int64 arrays in
        (program length, value) order; built once per (side, width).

        Side components wider than the target width can never appear inside
        a single short output, so they are dropped before the enumeration;
        the surviving program lengths are unchanged (index nibbles keep
        their width under renumbering).
        """
        comps = tuple(c for c in _as_components(side) if c[0] <= width)
        found = self._sorted.get((comps, width))
        if found is None:
            pairs = sorted((ln, tup[0][1]) for tup, ln in self.output_table(comps).items()
                           if len(tup) == 1 and tup[0][0] == width)
            table = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
            table.flags.writeable = False
            found = self._sorted[(comps, width)] = (table[0], table[1])
        return found

    def candidates(self, n: int, target: int, known: Mapping[int, BitString],
                   payload_conds: Sequence, bound: int) -> np.ndarray:
        """Values of the width-n strings x with C(x | side) <= bound, ordered
        by (program length, value), as a read-only view of the cached
        strings: at most 2^(bound+1) - 1 of them, as no more programs are
        bound bits long or shorter.

        The side is the known strings, then the payloads, in the order
        given; the machine knows no coordinates, so `target` is unused.
        """
        if bound < 0:
            return np.empty(0, dtype=np.int64)
        side = tuple(known.values()) + tuple(p for _, p, _ in payload_conds)
        lengths, values = self._strings(n, side)
        return values[:np.searchsorted(lengths, bound, side="right")]


# -- counting oracle over explicit correlation sets ----------------------------

def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending.  Same result as
    np.unique(values), whose plain form imports numpy.ma under numpy 2.4
    (about 15 ms per process)."""
    out = np.sort(values)
    if len(out) < 2:
        return out
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _unpack(n: int, packed: np.ndarray) -> np.ndarray:
    """(N, 3) rows of the triples packed as a << 2n | b << n | c."""
    mask = (1 << n) - 1
    return np.stack([packed >> (2 * n), (packed >> n) & mask, packed & mask], axis=1)


def check_width(n: int, where: str) -> None:
    """Refuse an explicit set's width outside 1..21, the widths whose triples
    pack into one int64 (3n <= 63 bits); `where` begins the message."""
    if not 1 <= n <= 21:
        raise ConfigError(f"{where}: width n={n} outside 1..21 (triples pack into 63 bits)")


class CorrelationSet:
    """Explicit S subset of ({0,1}^n)^3 with exact count and fiber queries."""

    def __init__(self, n: int, members):
        members = np.asarray(members, dtype=np.int64).reshape(-1, 3)
        if members.size == 0:
            raise ValueError("correlation set must be nonempty")
        check_width(n, "correlation set")
        if members.min() < 0 or members.max() >= (1 << n):
            raise ValueError(f"member coordinate out of range for n={n}")
        self.n = n
        # Packed order is lexicographic row order, so one 1-D pass sorts and
        # deduplicates the rows.
        self._packed = _distinct(
            (members[:, 0] << (2 * n)) | (members[:, 1] << n) | members[:, 2])
        self.members = _unpack(n, self._packed)
        self._columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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

    def row_mask(self, known: Mapping[int, BitString], payload_conds: Sequence) -> np.ndarray:
        """Rows that agree with the known strings and whose coordinates' strings
        own the payloads of payload_conds ((coord, payload, graph) triples),
        checked in that order; once no row is left, no further payload is
        checked.

        One payload check per distinct value of the column; its distinct
        values and row -> value index are computed on first use.
        """
        mask = np.ones(len(self.members), dtype=bool)
        for coord, value in known.items():
            mask &= self.members[:, coord] == value.value
        for i, (coord, payload, graph) in enumerate(payload_conds):
            # tested only where it can save a payload check, never on the full mask
            if (i or known) and not mask.any():
                break
            column = self._columns.get(coord)
            if column is None:
                column = np.unique(self.members[:, coord], return_inverse=True)
                self._columns[coord] = column
            values, inverse = column
            mask &= graph.payload_consistent_bulk(values, payload)[inverse]
        return mask

    def proj_count(self, subset: tuple[int, ...]) -> int:
        """Distinct projections of the members onto a SUBSETS entry."""
        return len(_distinct(self._pack_proj(self.members, subset)))


class CountingOracle:
    """Log-cardinality oracle over an explicit correlation set.

    The profile is a property of the set, shared by all member triples, so
    it is computed once per set, on the first call; conditionals are
    profile differences, so the chain rule holds exactly.
    """

    def __init__(self, S: CorrelationSet):
        self.S = S
        self._profile: Optional[ComplexityProfile] = None

    def profile(self, triple=None) -> ComplexityProfile:
        if triple is not None and not self.S.contains(triple):
            raise ValueError("triple is not a member of the correlation set")
        if self._profile is None:
            self._profile = ComplexityProfile(
                tuple(max(self.S.proj_count(s) - 1, 0).bit_length() for s in SUBSETS)
            )
        return self._profile

    def conditionals(self, triple=None,
                     profile: Optional[ComplexityProfile] = None) -> dict[tuple[int, ...], int]:
        """C(x_V | x_complement) for every non-empty V, from the profile
        (self.profile(triple) unless given)."""
        return (profile or self.profile(triple)).conditionals()

    def candidates(self, n: int, target: int, known: Mapping[int, BitString],
                   payload_conds: Sequence, bound: int) -> np.ndarray:
        """Distinct target values, in increasing order, of the members that
        agree with the known strings and own the conditioning payloads.

        Every fiber member shares the fiber's log-cardinality, so the set is
        empty whenever that exceeds the bound.  The set fixes the width, so
        `n` is unused.
        """
        mask = self.S.row_mask(known, payload_conds)
        values = _distinct(self.S.members[mask, target])
        if max(len(values) - 1, 0).bit_length() > bound:
            return values[:0]
        return values
