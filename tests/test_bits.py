import pytest
from hypothesis import given, strategies as st

from richowner.bits import BitString

from helpers import bs


def test_width_bounds():
    BitString(3, 7)
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(ValueError):
        BitString(2, -1)
    with pytest.raises(ValueError):
        BitString(-1, 0)


def test_big_endian_rendering():
    x = bs("0110")
    assert x.width == 4 and x.value == 6
    assert x.bits() == "0110"


def test_hex_round_trip():
    x = bs("101100001111")
    assert BitString.from_hex(x.hex(), 12) == x
    assert bs("0001").hex() == "1"


@given(st.integers(0, 63), st.integers(0))
def test_value_round_trip(width, raw):
    value = raw % (1 << width) if width else 0
    x = BitString(width, value)
    assert bs(x.bits()) == x
    assert BitString.from_hex(x.hex(), width) == x


@pytest.mark.parametrize("text, width", [
    ("", 4), (" 0x_f", 4), ("0xf", 8), ("f_f", 8), ("-1", 4), ("+f", 4), (" f", 4),
    ("f\n", 4), ("٣", 4), ("g", 4)])
def test_from_hex_reads_hex_digits_only(text, width):
    with pytest.raises(ValueError, match="not a hex string"):
        BitString.from_hex(text, width)


def test_from_hex_reads_the_empty_string_at_width_0_only():
    assert BitString.from_hex("", 0) == BitString(0, 0)
    assert BitString.from_hex("Fa", 8) == BitString(8, 0xFA)
