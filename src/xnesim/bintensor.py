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


@dataclass
class BinaryTensor:
    """A (c, h, w) tensor of single-bit values (bit 1 -> +1, 0 -> -1)."""

    c: int
    h: int
    w: int
    words: np.ndarray = field(default=None)  # (h, w, words_per_pixel)

    def __post_init__(self):
        for n, v in (("c", self.c), ("h", self.h), ("w", self.w)):
            _check_dim(n, v)
        wpp = self.words_per_pixel
        if self.words is None:
            self.words = np.zeros((self.h, self.w, wpp), dtype=WORD_DTYPE)
        else:
            self.words = np.ascontiguousarray(self.words, dtype=WORD_DTYPE)
            if self.words.shape != (self.h, self.w, wpp):
                raise ShapeError(
                    f"payload shape {self.words.shape} != "
                    f"{(self.h, self.w, wpp)}")

    @property
    def words_per_pixel(self) -> int:
        return words_for_bits(self.c)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryTensor":
        bits = np.asarray(bits)
        if bits.ndim != 3:
            raise ShapeError(f"expected (c, h, w) bits, got {bits.shape}")
        c, h, w = bits.shape
        t = cls(c, h, w)
        for i in range(h):
            for j in range(w):
                t.words[i, j, :] = pack_bits(bits[:, i, j])
        return t

    @classmethod
    def from_pm1(cls, vals: np.ndarray) -> "BinaryTensor":
        vals = np.asarray(vals)
        if not np.all(np.abs(vals) == 1):
            raise ShapeError("values must be -1 or +1")
        return cls.from_bits((vals > 0).astype(np.uint8))

    def to_bits(self) -> np.ndarray:
        out = np.zeros((self.c, self.h, self.w), dtype=np.uint8)
        for i in range(self.h):
            for j in range(self.w):
                out[:, i, j] = unpack_bits(self.words[i, j], self.c)
        return out

    def to_pm1(self) -> np.ndarray:
        return self.to_bits().astype(np.int64) * 2 - 1

    def flat_words(self) -> np.ndarray:
        """Row-major stream: pixel stride words_per_pixel, row stride w*that."""
        return self.words.reshape(-1)

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(MAGIC_TENSOR)
            f.write(struct.pack("<3I", self.c, self.h, self.w))
            f.write(self.flat_words().astype("<u4").tobytes())

    @classmethod
    def load(cls, path) -> "BinaryTensor":
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:4] != MAGIC_TENSOR:
            raise DecodeError(f"bad magic {raw[:4]!r}, expected {MAGIC_TENSOR!r}")
        if len(raw) < 16:
            raise DecodeError("truncated header")
        c, h, w = struct.unpack_from("<3I", raw, 4)
        if c < 1 or h < 1 or w < 1:
            raise DecodeError("zero dimension in header")
        wpp = words_for_bits(c)
        need = 16 + h * w * wpp * 4
        if len(raw) != need:
            raise DecodeError(f"payload is {len(raw) - 16} bytes, "
                              f"expected {need - 16}")
        words = np.frombuffer(raw, dtype="<u4", offset=16).astype(WORD_DTYPE)
        return cls(c, h, w, words.reshape(h, w, wpp))


@dataclass
class BinaryWeights:
    """A (n_out, n_in, fs, fs) filter bank of single-bit weights."""

    nof: int
    nif: int
    fs: int
    words: np.ndarray = field(default=None)  # (nof, fs, fs, words_per_tap)

    def __post_init__(self):
        for n, v in (("nof", self.nof), ("nif", self.nif), ("fs", self.fs)):
            _check_dim(n, v)
        wpt = self.words_per_tap
        shape = (self.nof, self.fs, self.fs, wpt)
        if self.words is None:
            self.words = np.zeros(shape, dtype=WORD_DTYPE)
        else:
            self.words = np.ascontiguousarray(self.words, dtype=WORD_DTYPE)
            if self.words.shape != shape:
                raise ShapeError(f"payload shape {self.words.shape} != {shape}")

    @property
    def words_per_tap(self) -> int:
        return words_for_bits(self.nif)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryWeights":
        bits = np.asarray(bits)
        if bits.ndim != 4 or bits.shape[2] != bits.shape[3]:
            raise ShapeError(
                f"expected (nof, nif, fs, fs) bits, got {bits.shape}")
        nof, nif, fs, _ = bits.shape
        wt = cls(nof, nif, fs)
        for k in range(nof):
            for fi in range(fs):
                for fj in range(fs):
                    wt.words[k, fi, fj, :] = pack_bits(bits[k, :, fi, fj])
        return wt

    @classmethod
    def from_pm1(cls, vals: np.ndarray) -> "BinaryWeights":
        vals = np.asarray(vals)
        if not np.all(np.abs(vals) == 1):
            raise ShapeError("values must be -1 or +1")
        return cls.from_bits((vals > 0).astype(np.uint8))

    def to_bits(self) -> np.ndarray:
        out = np.zeros((self.nof, self.nif, self.fs, self.fs), dtype=np.uint8)
        for k in range(self.nof):
            for fi in range(self.fs):
                for fj in range(self.fs):
                    out[k, :, fi, fj] = unpack_bits(
                        self.words[k, fi, fj], self.nif)
        return out

    def to_pm1(self) -> np.ndarray:
        return self.to_bits().astype(np.int64) * 2 - 1

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(MAGIC_WEIGHTS)
            f.write(struct.pack("<3I", self.nof, self.nif, self.fs))
            f.write(self.words.reshape(-1).astype("<u4").tobytes())

    @classmethod
    def load(cls, path) -> "BinaryWeights":
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:4] != MAGIC_WEIGHTS:
            raise DecodeError(f"bad magic {raw[:4]!r}, expected {MAGIC_WEIGHTS!r}")
        if len(raw) < 16:
            raise DecodeError("truncated header")
        nof, nif, fs = struct.unpack_from("<3I", raw, 4)
        if nof < 1 or nif < 1 or fs < 1:
            raise DecodeError("zero dimension in header")
        wpt = words_for_bits(nif)
        need = 16 + nof * fs * fs * wpt * 4
        if len(raw) != need:
            raise DecodeError(f"payload is {len(raw) - 16} bytes, "
                              f"expected {need - 16}")
        words = np.frombuffer(raw, dtype="<u4", offset=16).astype(WORD_DTYPE)
        return cls(nof, nif, fs, words.reshape(nof, fs, fs, wpt))
