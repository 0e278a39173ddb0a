"""Bit packing: the one place where 0/1 vectors become words and back.

Binary activations and weights live in {-1, +1} but are stored as single
bits (1 -> +1, 0 -> -1), packed LSB-first into little-endian 32-bit words.
Packing works along the last axis of an array of any rank, so a tensor,
a filter bank, a set of lane masks or a weight stream each pack in one
call; every vector starts on a word boundary. So once each vector is
zero-padded to whole words, the array is one flat LSB-first bit stream
and packs with a single flat np.packbits (np.packbits along the last
axis measured 2.5-3.8x slower on a 3x3x128x128 block).
"""

from __future__ import annotations

import numpy as np

from .analytic import WORD_BITS, words_for_bits
from .errors import ShapeError

WORD_DTYPE = np.uint32
# row b: the eight bits of byte b, LSB first, as +1 (bit set) or -1
_PM1_OF_BYTE = (2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                  axis=1, bitorder="little")
                .astype(np.float32) - 1)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of an array of 0/1 values into uint32 words,
    LSB-first: shape (..., n) becomes (..., words_for_bits(n)).

    Pad bits past the end of each vector are zero.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0:
        raise ShapeError("expected a bit array, got a scalar")
    n = bits.shape[-1]
    if n % WORD_BITS:
        whole = np.zeros(bits.shape[:-1] + (WORD_BITS * words_for_bits(n),),
                         dtype=bits.dtype)
        whole[..., :n] = bits
        bits = whole
    b = np.packbits(bits.reshape(-1), bitorder="little")
    return b.view("<u4").astype(WORD_DTYPE, copy=False).reshape(
        bits.shape[:-1] + (bits.shape[-1] // WORD_BITS,))


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of pack_bits: the first *nbits* bits of each word vector
    (the last axis) as a uint8 array of 0/1."""
    words = np.ascontiguousarray(words, dtype="<u4")
    stored = WORD_BITS * words.shape[-1]
    if nbits > stored:
        raise ShapeError(f"asked for {nbits} bits, only {stored} stored")
    return np.unpackbits(words.view(np.uint8), axis=-1, count=nbits,
                         bitorder="little")


def unpack_pm1(words: np.ndarray, nbits: int) -> np.ndarray:
    """unpack_bits(words, nbits) as float32 +/-1 (bit 1 -> +1, 0 -> -1),
    by one lookup of each packed little-endian byte in a 256 x 8 table
    in place of unpack, astype, x2 and -1. The last axis may be a view
    of nbits of a wider row."""
    words = np.ascontiguousarray(words, dtype="<u4")
    stored = WORD_BITS * words.shape[-1]
    if nbits > stored:
        raise ShapeError(f"asked for {nbits} bits, only {stored} stored")
    # np.take gathers whole table rows; fancy indexing measured 2-8x slower
    pm1 = np.take(_PM1_OF_BYTE, words.view(np.uint8), axis=0)
    return pm1.reshape(words.shape[:-1] + (stored,))[..., :nbits]
