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
    assert x[0] == 0 and x[1] == 1 and x[2] == 1 and x[3] == 0


def test_prefix_takes_leading_bits():
    x = bs("10110")
    assert x.prefix(2) == bs("10")
    assert x.prefix(0) == BitString(0, 0)
    assert x.prefix(5) == x
    with pytest.raises(ValueError):
        x.prefix(6)


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
    assert len(x) == width


@given(st.integers(1, 40), st.integers(0), st.integers(0, 40))
def test_prefix_of_prefix(width, raw, cut):
    x = BitString(width, raw % (1 << width))
    m1 = min(cut, width)
    m2 = m1 // 2
    assert x.prefix(m1).prefix(m2) == x.prefix(m2)
