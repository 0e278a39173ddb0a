"""Low-level bit packing and popcount helpers.

Binary activations and weights live in {-1, +1} but are stored as single
bits (1 -> +1, 0 -> -1), packed LSB-first into little-endian 32-bit words.
Everything else in the simulator builds on the handful of primitives here.
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
    """Pack a 1-D array of 0/1 values into uint32 words, LSB-first.

    Pad bits past the end of the input are zero.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ShapeError(f"expected 1-D bit array, got shape {bits.shape}")
    b = np.packbits(bits.astype(np.uint8), bitorder="little")
    pad = (-len(b)) % 4
    if pad:
        b = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
    return b.view("<u4").astype(WORD_DTYPE)


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of pack_bits: first *nbits* bits as a uint8 array of 0/1."""
    words = np.ascontiguousarray(words, dtype=WORD_DTYPE)
    byts = words.astype("<u4").view(np.uint8)
    bits = np.unpackbits(byts, bitorder="little")
    if nbits > len(bits):
        raise ShapeError(f"asked for {nbits} bits, only {len(bits)} stored")
    return bits[:nbits]


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of words."""
    return int(np.bitwise_count(np.asarray(words)).sum())


def lane_mask(nbits: int, total_words: int) -> np.ndarray:
    """Words with the low *nbits* bits set, zero beyond."""
    if nbits > total_words * WORD_BITS:
        raise ShapeError("mask longer than word buffer")
    out = np.zeros(total_words, dtype=WORD_DTYPE)
    full, rem = divmod(int(nbits), WORD_BITS)
    out[:full] = np.uint32(0xFFFFFFFF)
    if rem:
        out[full] = np.uint32((1 << rem) - 1)
    return out
