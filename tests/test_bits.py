import numpy as np
import pytest
from hypothesis import given, strategies as st

from xnesim import bits
from xnesim.errors import ShapeError


@given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
def test_pack_unpack_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint8)
    words = bits.pack_bits(arr)
    assert words.dtype == np.uint32
    assert len(words) == bits.words_for_bits(len(arr))
    back = bits.unpack_bits(words, len(arr))
    assert np.array_equal(back, arr)


def test_pack_is_lsb_first():
    words = bits.pack_bits(np.array([1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
    assert words[0] == (1 << 0) | (1 << 8)


def test_pack_pad_bits_are_zero():
    words = bits.pack_bits(np.ones(33, dtype=np.uint8))
    assert words[0] == 0xFFFFFFFF
    assert words[1] == 1  # bits 33..63 stay zero


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50))
def test_popcount_matches_python(vals):
    words = np.array(vals, dtype=np.uint32)
    expect = sum(int(v).bit_count() for v in vals)
    assert bits.popcount_words(words) == expect


def test_lane_mask_boundaries():
    m = bits.lane_mask(0, 2)
    assert m.tolist() == [0, 0]
    m = bits.lane_mask(32, 2)
    assert m.tolist() == [0xFFFFFFFF, 0]
    m = bits.lane_mask(33, 2)
    assert m.tolist() == [0xFFFFFFFF, 1]
    with pytest.raises(ShapeError):
        bits.lane_mask(65, 2)
