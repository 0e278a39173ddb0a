"""Packed binary tensors for activations and filter banks.

Activations are (channels, height, width). The channel vector of each
pixel is packed channel-fastest, LSB-first, and padded with zero bits up
to a whole number of 32-bit words, so every pixel starts word-aligned.
Filter banks are (n_out, n_in, fs, fs) with the input-channel vector of
each (output, fi, fj) tap packed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import _check_dim, words_for_bits
from .bits import WORD_DTYPE, pack_bits, unpack_bits
from .errors import ShapeError


def _payload(words, shape: tuple) -> np.ndarray:
    """Zero words of *shape*, or *words* checked to have it."""
    if words is None:
        return np.zeros(shape, dtype=WORD_DTYPE)
    words = np.ascontiguousarray(words, dtype=WORD_DTYPE)
    if words.shape != shape:
        raise ShapeError(f"payload shape {words.shape} != {shape}")
    return words


@dataclass
class BinaryTensor:
    """A (c, h, w) tensor of single-bit values (bit 1 -> +1, 0 -> -1)."""

    c: int
    h: int
    w: int
    words: np.ndarray = field(default=None)  # (h, w, words_for_bits(c))

    def __post_init__(self):
        for n, v in (("c", self.c), ("h", self.h), ("w", self.w)):
            _check_dim(n, v)
        self.words = _payload(self.words,
                              (self.h, self.w, words_for_bits(self.c)))

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryTensor":
        bits = np.asarray(bits)
        if bits.ndim != 3:
            raise ShapeError(f"expected (c, h, w) bits, got {bits.shape}")
        return cls(*bits.shape, pack_bits(bits.transpose(1, 2, 0)))

    def to_bits(self) -> np.ndarray:
        return np.ascontiguousarray(
            unpack_bits(self.words, self.c).transpose(2, 0, 1))

    def flat_words(self) -> np.ndarray:
        """Row-major stream: pixel stride words_for_bits(c), row stride w*that."""
        return self.words.reshape(-1)


def bit_mismatches(a: BinaryTensor, b: BinaryTensor) -> int:
    """Number of bits in which a and b differ, counted on the packed
    words: pad bits past c are zero in both."""
    if (a.c, a.h, a.w) != (b.c, b.h, b.w):
        raise ShapeError(f"cannot compare {(a.c, a.h, a.w)} with "
                         f"{(b.c, b.h, b.w)}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


@dataclass
class BinaryWeights:
    """A (n_out, n_in, fs, fs) filter bank of single-bit weights."""

    nof: int
    nif: int
    fs: int
    words: np.ndarray = field(default=None)  # (nof, fs, fs, words_for_bits(nif))

    def __post_init__(self):
        for n, v in (("nof", self.nof), ("nif", self.nif), ("fs", self.fs)):
            _check_dim(n, v)
        self.words = _payload(
            self.words, (self.nof, self.fs, self.fs, words_for_bits(self.nif)))

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryWeights":
        bits = np.asarray(bits)
        if bits.ndim != 4 or bits.shape[2] != bits.shape[3]:
            raise ShapeError(
                f"expected (nof, nif, fs, fs) bits, got {bits.shape}")
        return cls(*bits.shape[:3], pack_bits(bits.transpose(0, 2, 3, 1)))

    def to_bits(self) -> np.ndarray:
        return np.ascontiguousarray(
            unpack_bits(self.words, self.nif).transpose(0, 3, 1, 2))
