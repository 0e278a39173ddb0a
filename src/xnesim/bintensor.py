"""Packed binary tensors for activations and filter banks.

Activations are (channels, height, width). The channel vector of each
pixel is packed channel-fastest, LSB-first, and padded with zero bits up
to a whole number of 32-bit words, so every pixel starts word-aligned.
Filter banks are (n_out, n_in, fs, fs) with the input-channel vector of
each (output, fi, fj) tap packed the same way.

Both have a small binary file container: a 4-byte magic, little-endian
u32 dimensions, then the raw little-endian word payload.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .bits import WORD_DTYPE, pack_bits, unpack_bits, words_for_bits
from .errors import DecodeError, ShapeError

MAGIC_TENSOR = b"XBT1"
MAGIC_WEIGHTS = b"XBW1"


def _check_dim(name, v):
    if not (isinstance(v, (int, np.integer)) and v >= 1):
        raise ShapeError(f"{name} must be a positive integer, got {v!r}")


def _payload(words, shape: tuple) -> np.ndarray:
    """Zero words of *shape*, or *words* checked to have it."""
    if words is None:
        return np.zeros(shape, dtype=WORD_DTYPE)
    words = np.ascontiguousarray(words, dtype=WORD_DTYPE)
    if words.shape != shape:
        raise ShapeError(f"payload shape {words.shape} != {shape}")
    return words


def _pm1_to_bits(vals) -> np.ndarray:
    vals = np.asarray(vals)
    if not np.all(np.abs(vals) == 1):
        raise ShapeError("values must be -1 or +1")
    return (vals > 0).astype(np.uint8)


def _write_container(path, magic: bytes, dims: tuple, words) -> None:
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<3I", *dims))
        f.write(np.ascontiguousarray(words, dtype="<u4").tobytes())


def _read_container(path, magic: bytes, payload_shape):
    """(dims, words) of a container file; the words take the shape
    payload_shape(*dims)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != magic:
        raise DecodeError(f"bad magic {raw[:4]!r}, expected {magic!r}")
    if len(raw) < 16:
        raise DecodeError("truncated header")
    dims = struct.unpack_from("<3I", raw, 4)
    if min(dims) < 1:
        raise DecodeError("zero dimension in header")
    shape = payload_shape(*dims)
    need = 16 + 4 * math.prod(shape)
    if len(raw) != need:
        raise DecodeError(f"payload is {len(raw) - 16} bytes, "
                          f"expected {need - 16}")
    words = np.frombuffer(raw, dtype="<u4", offset=16).astype(WORD_DTYPE)
    return dims, words.reshape(shape)


@dataclass
class BinaryTensor:
    """A (c, h, w) tensor of single-bit values (bit 1 -> +1, 0 -> -1)."""

    c: int
    h: int
    w: int
    words: np.ndarray = field(default=None)  # (h, w, words_for_bits(c))

    @staticmethod
    def _payload_shape(c: int, h: int, w: int) -> tuple:
        return (h, w, words_for_bits(c))

    def __post_init__(self):
        for n, v in (("c", self.c), ("h", self.h), ("w", self.w)):
            _check_dim(n, v)
        self.words = _payload(self.words,
                              self._payload_shape(self.c, self.h, self.w))

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryTensor":
        bits = np.asarray(bits)
        if bits.ndim != 3:
            raise ShapeError(f"expected (c, h, w) bits, got {bits.shape}")
        return cls(*bits.shape, pack_bits(bits.transpose(1, 2, 0)))

    @classmethod
    def from_pm1(cls, vals: np.ndarray) -> "BinaryTensor":
        return cls.from_bits(_pm1_to_bits(vals))

    def to_bits(self) -> np.ndarray:
        return np.ascontiguousarray(
            unpack_bits(self.words, self.c).transpose(2, 0, 1))

    def to_pm1(self) -> np.ndarray:
        return self.to_bits().astype(np.int64) * 2 - 1

    def flat_words(self) -> np.ndarray:
        """Row-major stream: pixel stride words_for_bits(c), row stride w*that."""
        return self.words.reshape(-1)

    def save(self, path) -> None:
        _write_container(path, MAGIC_TENSOR, (self.c, self.h, self.w),
                         self.words)

    @classmethod
    def load(cls, path) -> "BinaryTensor":
        dims, words = _read_container(path, MAGIC_TENSOR, cls._payload_shape)
        return cls(*dims, words)


@dataclass
class BinaryWeights:
    """A (n_out, n_in, fs, fs) filter bank of single-bit weights."""

    nof: int
    nif: int
    fs: int
    words: np.ndarray = field(default=None)  # (nof, fs, fs, words_for_bits(nif))

    @staticmethod
    def _payload_shape(nof: int, nif: int, fs: int) -> tuple:
        return (nof, fs, fs, words_for_bits(nif))

    def __post_init__(self):
        for n, v in (("nof", self.nof), ("nif", self.nif), ("fs", self.fs)):
            _check_dim(n, v)
        self.words = _payload(self.words,
                              self._payload_shape(self.nof, self.nif, self.fs))

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryWeights":
        bits = np.asarray(bits)
        if bits.ndim != 4 or bits.shape[2] != bits.shape[3]:
            raise ShapeError(
                f"expected (nof, nif, fs, fs) bits, got {bits.shape}")
        return cls(*bits.shape[:3], pack_bits(bits.transpose(0, 2, 3, 1)))

    @classmethod
    def from_pm1(cls, vals: np.ndarray) -> "BinaryWeights":
        return cls.from_bits(_pm1_to_bits(vals))

    def to_bits(self) -> np.ndarray:
        return np.ascontiguousarray(
            unpack_bits(self.words, self.nif).transpose(0, 3, 1, 2))

    def to_pm1(self) -> np.ndarray:
        return self.to_bits().astype(np.int64) * 2 - 1

    def save(self, path) -> None:
        _write_container(path, MAGIC_WEIGHTS, (self.nof, self.nif, self.fs),
                         self.words)

    @classmethod
    def load(cls, path) -> "BinaryWeights":
        dims, words = _read_container(path, MAGIC_WEIGHTS, cls._payload_shape)
        return cls(*dims, words)
