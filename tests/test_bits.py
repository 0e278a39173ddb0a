import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xnesim import analytic, bits
from xnesim.errors import ShapeError


@given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
def test_pack_unpack_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint8)
    words = bits.pack_bits(arr)
    assert words.dtype == np.uint32
    assert len(words) == analytic.words_for_bits(len(arr))
    back = bits.unpack_bits(words, len(arr))
    assert np.array_equal(back, arr)


def test_pack_is_lsb_first():
    words = bits.pack_bits(np.array([1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
    assert words[0] == (1 << 0) | (1 << 8)


def test_pack_pad_bits_are_zero():
    words = bits.pack_bits(np.ones(33, dtype=np.uint8))
    assert words[0] == 0xFFFFFFFF
    assert words[1] == 1  # bits 33..63 stay zero


@given(st.lists(st.integers(1, 3), max_size=3), st.integers(1, 70),
       st.sampled_from([np.uint8, np.bool_]), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_pack_unpack_last_axis_equals_per_vector(lead, n, dtype, strided,
                                                 rnd):
    # ranks 1-4, bool or uint8, optionally a transposed (strided) view;
    # each word must equal sum(bit << i) over its 32 bits of the vector
    shape = tuple(lead) + (n,)
    arr = np.array([rnd.randint(0, 1) for _ in range(math.prod(shape))],
                   dtype=dtype).reshape(shape)
    if strided:
        arr = np.moveaxis(np.ascontiguousarray(np.moveaxis(arr, -1, 0)), 0, -1)
    words = bits.pack_bits(arr)
    nw = analytic.words_for_bits(n)
    assert words.dtype == np.uint32 and words.shape == shape[:-1] + (nw,)
    for idx in np.ndindex(*shape[:-1]):
        vec = [int(b) for b in arr[idx]]
        want = [sum(b << i for i, b in enumerate(vec[32 * k:32 * k + 32]))
                for k in range(nw)]
        assert words[idx].tolist() == want
    if n % 32:  # bits past n in the last word stay zero
        assert not np.any(words[..., -1] >> np.uint32(n % 32))
    assert np.array_equal(bits.unpack_bits(words, n), arr.astype(np.uint8))


def test_unpack_rejects_more_bits_than_stored():
    words = np.zeros((3, 2), dtype=np.uint32)
    assert bits.unpack_bits(words, 64).shape == (3, 64)
    with pytest.raises(ShapeError):
        bits.unpack_bits(words, 65)
