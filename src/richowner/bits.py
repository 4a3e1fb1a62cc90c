"""Fixed-width bit strings.

A BitString is an immutable (width, value) pair rendered big-endian: the
most significant bit of ``value`` is the first character of ``bits()``.
Widths are preserved by every operation that does not explicitly resize.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import hexdigits


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
    def from_hex(cls, hex_str: str, width: int) -> "BitString":
        """The string of hex digits only (no sign, prefix, space or
        underscore); the empty string is read only at width 0."""
        if set(hex_str) - set(hexdigits) or not (hex_str or width == 0):
            raise ValueError(f"not a hex string of width {width}: {hex_str!r}")
        return cls(width, int(hex_str, 16) if hex_str else 0)

    def bits(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    def hex(self) -> str:
        nibbles = (self.width + 3) // 4
        return format(self.value, f"0{nibbles}x") if self.width else ""

    def __repr__(self) -> str:
        return f"BitString({self.width}, 0b{self.bits()})" if self.width else "BitString(0)"

