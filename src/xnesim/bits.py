"""Bit packing: the one place where 0/1 vectors become words and back.

Binary activations and weights live in {-1, +1} but are stored as single
bits (1 -> +1, 0 -> -1), packed LSB-first into little-endian 32-bit words.
Packing works along the last axis of an array of any rank, so a tensor,
a filter bank, a set of lane masks or a weight stream each pack in one
call; every vector starts on a word boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

WORD_BITS = 32
WORD_DTYPE = np.uint32


def words_for_bits(nbits: int) -> int:
    """Number of 32-bit words needed to hold *nbits* bits."""
    return (int(nbits) + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of an array of 0/1 values into uint32 words,
    LSB-first: shape (..., n) becomes (..., words_for_bits(n)).

    Pad bits past the end of each vector are zero.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0:
        raise ShapeError("expected a bit array, got a scalar")
    b = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    pad = (-b.shape[-1]) % 4
    if pad:
        b = np.pad(b, [(0, 0)] * (b.ndim - 1) + [(0, pad)])
    return np.ascontiguousarray(b).view("<u4").astype(WORD_DTYPE)


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of pack_bits: the first *nbits* bits of each word vector
    (the last axis) as a uint8 array of 0/1."""
    words = np.ascontiguousarray(words, dtype="<u4")
    stored = WORD_BITS * words.shape[-1]
    if nbits > stored:
        raise ShapeError(f"asked for {nbits} bits, only {stored} stored")
    return np.unpackbits(words.view(np.uint8), axis=-1, count=nbits,
                         bitorder="little")
