"""The memory system's backing store, traffic counters and stream
realigner.

The memory map, placement and energy model are defined in
xnesim.analytic. The streamer issues word-aligned transactions and
realigns byte-offset streams on the fly.
"""

from __future__ import annotations

import numpy as np

from .analytic import (CoefficientSet as CoefficientSet, Region,
                       account_energy as account_energy,
                       default_memory_map as default_memory_map)
from .errors import RegionError, ShapeError


class Memory:
    """Byte-addressable backing store across the regions of
    default_memory_map(), with per-region traffic counters. A region's
    buffer is allocated on its first write; bytes never written read as
    zero. Access to an unmapped address raises RegionError.

    gather/gather_words/scatter make many accesses in one call, all in
    one region: region_of finds it from the first access, and one
    bounds test checks every other against it. Each access is charged
    exactly as the one-at-a-time methods would; RegionError names the
    first access that fails, and a refused batch charges nothing."""

    def __init__(self):
        self.regions = {r.name: r for r in default_memory_map()}
        self._buf: dict[str, np.ndarray] = {}
        self.traffic = {r.name: {"read_bits": 0, "write_bits": 0}
                        for r in self.regions.values()}

    def region_of(self, addr: int, nbytes: int = 1) -> Region:
        for r in self.regions.values():
            if r.contains(addr, nbytes):
                return r
        raise RegionError(f"no region holds [{addr:#x}, +{nbytes})")

    def base(self, name: str) -> int:
        return self.regions[name].base

    def _writable(self, r: Region) -> np.ndarray:
        if r.name not in self._buf:
            self._buf[r.name] = np.zeros(r.size, dtype=np.uint8)
        return self._buf[r.name]

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        r = self.region_of(addr, nbytes)
        off = addr - r.base
        self.traffic[r.name]["read_bits"] += 8 * nbytes
        if r.name not in self._buf:
            return np.zeros(nbytes, dtype=np.uint8)
        return self._buf[r.name][off:off + nbytes].copy()

    def write(self, addr: int, data) -> None:
        data = np.ascontiguousarray(data, dtype=np.uint8)
        r = self.region_of(addr, len(data))
        off = addr - r.base
        self.traffic[r.name]["write_bits"] += 8 * len(data)
        self._writable(r)[off:off + len(data)] = data

    def read_words(self, addr: int, nwords: int) -> np.ndarray:
        if addr % 4:
            raise RegionError(f"word access at unaligned {addr:#x}")
        return self.read(addr, 4 * nwords).view("<u4").astype(np.uint32)

    def write_words(self, addr: int, words: np.ndarray) -> None:
        if addr % 4:
            raise RegionError(f"word access at unaligned {addr:#x}")
        self.write(addr, np.ascontiguousarray(words, "<u4").view(np.uint8))

    def _batch_region(self, addrs: np.ndarray, nbytes) -> Region:
        """The region of a non-empty batch of accesses [addrs[i],
        addrs[i] + nbytes[i]): region_of the first; RegionError naming
        the first access that region does not hold."""
        n = np.broadcast_to(nbytes, addrs.shape)
        r = self.region_of(int(addrs[0]), int(n[0]))
        bad = np.flatnonzero((addrs < r.base) | (addrs + n > r.base + r.size))
        if len(bad):
            i = bad[0]
            raise RegionError(f"[{int(addrs[i]):#x}, +{int(n[i])}) lies "
                              f"outside {r.name}, the region of the "
                              f"batch's first access")
        return r

    def gather(self, addrs, nbytes: int, repeat: int = 1
               ) -> tuple[np.ndarray, np.ndarray]:
        """read(a, nbytes), *repeat* times over, for every address a of
        addrs, fetching each distinct address once: (rows, inverse),
        the distinct addresses' bytes as a (k, nbytes) uint8 array and,
        per access, its row. The rows are read through one strided view
        of the region's buffer, row a holding bytes [a, a + nbytes)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        uniq, inverse = np.unique(addrs, return_inverse=True)
        if not len(addrs):
            return np.zeros((0, nbytes), dtype=np.uint8), inverse
        r = self._batch_region(addrs, nbytes)
        self.traffic[r.name]["read_bits"] += 8 * nbytes * repeat * len(addrs)
        if r.name not in self._buf:
            return np.zeros((len(uniq), nbytes), dtype=np.uint8), inverse
        view = np.ndarray((r.size - nbytes + 1, nbytes), np.uint8,
                          self._buf[r.name], 0, (1, 1))
        return view[uniq - r.base], inverse

    def gather_words(self, addrs, nwords: int, repeat: int = 1
                     ) -> tuple[np.ndarray, np.ndarray]:
        """read_words(a, nwords) for every address a of addrs, as
        gather() does: rows are (k, nwords) uint32."""
        addrs = np.asarray(addrs, dtype=np.int64)
        unaligned = np.flatnonzero(addrs % 4)
        if len(unaligned):
            raise RegionError(f"word access at unaligned "
                              f"{int(addrs[unaligned[0]]):#x}")
        rows, inverse = self.gather(addrs, 4 * nwords, repeat)
        return rows.view("<u4").astype(np.uint32), inverse

    def scatter(self, addrs, rows: np.ndarray, nbytes) -> None:
        """write(addrs[i], rows[i, :nbytes[i]]) for every i, in order:
        where two writes overlap, the later one's bytes stay. When the
        rows are pairwise disjoint (sorted by start, each ends at or
        before the next begins), no byte is written twice, so the order
        of the writes cannot show and every byte is written at once;
        otherwise each byte keeps its last write."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if not len(addrs):
            return
        rows = np.asarray(rows, dtype=np.uint8)
        nbytes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64),
                                 addrs.shape)
        r = self._batch_region(addrs, nbytes)
        self.traffic[r.name]["write_bits"] += 8 * int(nbytes.sum())
        order = np.argsort(addrs, kind="stable")
        start = addrs[order]
        disjoint = np.all(start[:-1] + nbytes[order][:-1] <= start[1:])
        if disjoint:
            # sorted by start, the bytes of disjoint rows are sorted too
            addrs, rows, nbytes = start, rows[order], nbytes[order]
        keep = np.arange(rows.shape[1]) < nbytes[:, None]
        at = (addrs[:, None] + np.arange(rows.shape[1]))[keep]
        vals = rows[keep]
        if not disjoint:
            # flattened in write order, reversed: a byte's first
            # occurrence is its last write
            at, last = np.unique(at[::-1], return_index=True)
            vals = vals[::-1][last]
        self._writable(r)[at - r.base] = vals


# ---------------------------------------------------------------------------
# Streamer realignment


def realign(words: np.ndarray, byte_offset: int, nbytes: int) -> np.ndarray:
    """Shift a word stream down by byte_offset bytes.

    Models the streamer's realigner: input is the aligned word stream
    covering the span, output is nbytes of payload packed from bit 0,
    with the tail zero-padded to whole words. byte_offset is within the
    first word (0..3).
    """
    if not 0 <= byte_offset <= 3:
        raise ShapeError(f"byte offset {byte_offset} outside a word")
    if nbytes < 0:
        raise ShapeError("negative length")
    words = np.ascontiguousarray(words, dtype=np.uint32)
    need = (byte_offset + nbytes + 3) // 4
    if len(words) < need:
        raise ShapeError(f"{len(words)} words cover less than "
                         f"offset {byte_offset} + {nbytes} bytes")
    n_out = (nbytes + 3) // 4
    if n_out == 0:
        return np.zeros(0, dtype=np.uint32)
    w = np.zeros(n_out + 1, dtype=np.uint64)
    avail = min(len(words), n_out + 1)
    w[:avail] = words[:avail].astype(np.uint64)
    k = 8 * byte_offset
    if k:
        out = ((w[:n_out] >> np.uint64(k))
               | (w[1:n_out + 1] << np.uint64(32 - k))) & np.uint64(0xFFFFFFFF)
    else:
        out = w[:n_out]
    out = out.astype(np.uint32)
    rem = nbytes % 4
    if rem:
        out[-1] &= np.uint32((1 << (8 * rem)) - 1)
    return out
