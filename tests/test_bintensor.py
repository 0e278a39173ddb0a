import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xnesim.bintensor import BinaryTensor, BinaryWeights
from xnesim.errors import ShapeError

dims = st.integers(1, 5)


@given(st.integers(1, 70), dims, dims, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_tensor_bits_roundtrip(c, h, w, rnd):
    bits = np.array([[[rnd.randint(0, 1) for _ in range(w)]
                      for _ in range(h)] for _ in range(c)], dtype=np.uint8)
    t = BinaryTensor.from_bits(bits)
    assert t.words.shape == (h, w, (c + 31) // 32)
    assert np.array_equal(t.to_bits(), bits)


def test_tensor_layout_channel_fastest():
    # channel k of pixel (i, j) is bit k of that pixel's word block
    t = BinaryTensor(33, 2, 2)
    bits = np.zeros((33, 2, 2), dtype=np.uint8)
    bits[0, 0, 0] = 1
    bits[32, 1, 0] = 1
    t = BinaryTensor.from_bits(bits)
    assert t.words[0, 0, 0] == 1 and t.words[0, 0, 1] == 0
    assert t.words[1, 0, 0] == 0 and t.words[1, 0, 1] == 1


def test_tensor_pixel_padding_is_zero():
    t = BinaryTensor.from_bits(np.ones((3, 1, 1), dtype=np.uint8))
    assert t.words[0, 0, 0] == 0b111


def test_flat_words_strides():
    # row-major pixel order: (i, j) at word (i*w + j) * words_for_bits(c)
    bits = np.zeros((1, 2, 3), dtype=np.uint8)
    bits[0, 1, 2] = 1
    flat = BinaryTensor.from_bits(bits).flat_words()
    assert flat[5] == 1 and flat.sum() == 1


@given(dims, st.integers(1, 40), st.integers(1, 3),
       st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_weights_bits_roundtrip(nof, nif, fs, rnd):
    bits = np.array(
        [[[[rnd.randint(0, 1) for _ in range(fs)] for _ in range(fs)]
          for _ in range(nif)] for _ in range(nof)], dtype=np.uint8)
    w = BinaryWeights.from_bits(bits)
    assert w.words.shape == (nof, fs, fs, (nif + 31) // 32)
    assert np.array_equal(w.to_bits(), bits)


def test_shape_validation():
    with pytest.raises(ShapeError):
        BinaryTensor(0, 1, 1)
    with pytest.raises(ShapeError):
        BinaryTensor(1, 1, 1, words=np.zeros((2, 1, 1), dtype=np.uint32))
    with pytest.raises(ShapeError):
        BinaryWeights.from_bits(np.zeros((2, 3, 2, 3), dtype=np.uint8))
