import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 70),
       st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_pack_unpack_last_axis_equals_per_vector(a, b, n, rnd):
    arr = np.array([[[rnd.randint(0, 1) for _ in range(n)]
                     for _ in range(b)] for _ in range(a)], dtype=np.uint8)
    words = bits.pack_bits(arr)
    assert words.shape == (a, b, bits.words_for_bits(n))
    for i in range(a):
        for j in range(b):
            assert np.array_equal(words[i, j], bits.pack_bits(arr[i, j]))
    assert np.array_equal(bits.unpack_bits(words, n), arr)


def test_unpack_rejects_more_bits_than_stored():
    words = np.zeros((3, 2), dtype=np.uint32)
    assert bits.unpack_bits(words, 64).shape == (3, 64)
    with pytest.raises(ShapeError):
        bits.unpack_bits(words, 65)
