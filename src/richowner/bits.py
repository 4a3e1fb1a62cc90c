"""Fixed-width bit strings.

A BitString is an immutable (width, value) pair rendered big-endian: the
most significant bit of ``value`` is the first character of ``bits()``.
Widths are preserved by every operation that does not explicitly resize.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class BitString:
    width: int
    value: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"width must be >= 0, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"value {self.value} out of range for width {self.width}"
            )

    @classmethod
    def from_bits(cls, bits: str) -> "BitString":
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(len(bits), int(bits, 2) if bits else 0)

    @classmethod
    def from_hex(cls, hex_str: str, width: int) -> "BitString":
        return cls(width, int(hex_str, 16) if hex_str else 0)

    def bits(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    def hex(self) -> str:
        nibbles = (self.width + 3) // 4
        return format(self.value, f"0{nibbles}x") if self.width else ""

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.width:
            raise IndexError(i)
        return (self.value >> (self.width - 1 - i)) & 1

    def prefix(self, m: int) -> "BitString":
        """First m bits of the big-endian rendering."""
        if not 0 <= m <= self.width:
            raise ValueError(f"prefix length {m} out of range for width {self.width}")
        return BitString(m, self.value >> (self.width - m))

    def __repr__(self) -> str:
        return f"BitString({self.width}, 0b{self.bits()})" if self.width else "BitString(0)"

