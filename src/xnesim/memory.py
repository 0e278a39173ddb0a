"""Memory map, placement, stream realigner and the energy/operating-point
model.

The accelerator lives in a cluster with a small standard-cell memory,
a larger shared SRAM bank, a core-coupled scratchpad, and an external
serial HyperRAM behind a 1 Gbit/s link. The streamer issues
word-aligned transactions and realigns byte-offset streams on the fly.

Energy is accounted per binary op (engine + local memory access) plus
per-bit costs for marshalling parameters inside the cluster and for
fetching them over the HyperRAM link.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DecodeError, ModeError, RegionError, ShapeError

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class Region:
    name: str
    base: int
    size: int

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        return self.base <= addr and addr + nbytes <= self.base + self.size


def default_memory_map() -> list[Region]:
    return [
        Region("l1", 0x1000_0000, 64 * KIB),        # core-coupled scratchpad
        Region("scm", 0x2000_0000, 8 * KIB),        # standard-cell memory
        Region("sram", 0x2010_0000, 448 * KIB),     # shared bank
        Region("hyperram", 0x8000_0000, 8 * MIB),   # external, serial link
    ]


# the map's regions in address order, with their bases and ends: one
# searchsorted finds the region of every access of a batch
_BY_BASE = sorted(default_memory_map(), key=lambda r: r.base)
_NAMES = [r.name for r in _BY_BASE]
_BASES = np.array([r.base for r in _BY_BASE])
_ENDS = np.array([r.base + r.size for r in _BY_BASE])


class Memory:
    """Byte-addressable backing store across the regions of
    default_memory_map(), with per-region traffic counters. A region's
    buffer is allocated on its first write; bytes never written read as
    zero. Access to an unmapped address raises RegionError.

    gather/gather_words/scatter make many accesses in one call: each
    access is checked and charged exactly as the one-at-a-time methods
    would, and RegionError names the first access that fails."""

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

    @staticmethod
    def _locate(addrs: np.ndarray, nbytes) -> np.ndarray:
        """Per access [addr, addr + nbytes), the index in _NAMES of the
        region that holds it, from one searchsorted over the sorted
        region bases; RegionError naming the first access no region
        holds."""
        k = np.searchsorted(_BASES, addrs, side="right") - 1
        bad = np.flatnonzero((k < 0) | (addrs + nbytes > _ENDS[k]))
        if len(bad):
            i = bad[0]
            n = np.broadcast_to(nbytes, addrs.shape)[i]
            raise RegionError(f"no region holds [{int(addrs[i]):#x}, "
                              f"+{int(n)})")
        return k

    def _runs(self, at: np.ndarray) -> list[tuple[Region, int, int]]:
        """(region, lo, hi) per region that holds any address of the
        sorted, mapped addresses *at*: it holds at[lo:hi]."""
        lo = np.searchsorted(at, _BASES).tolist()
        hi = np.searchsorted(at, _ENDS).tolist()
        return [(self.regions[r], a, b)
                for r, a, b in zip(_NAMES, lo, hi) if b > a]

    def gather(self, addrs, nbytes: int, repeat: int = 1
               ) -> tuple[np.ndarray, np.ndarray]:
        """read(a, nbytes), *repeat* times over, for every address a of
        addrs, fetching each distinct address once: (rows, inverse),
        the distinct addresses' bytes as a (k, nbytes) uint8 array and,
        per access, its row. Each region's rows are read through one
        strided view of its buffer, row a holding bytes [a, a + nbytes)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        k = self._locate(addrs, nbytes)
        counts = np.bincount(k, minlength=len(_NAMES)).tolist()
        for r, n in zip(_NAMES, counts):
            self.traffic[r]["read_bits"] += 8 * nbytes * repeat * n
        uniq, inverse = np.unique(addrs, return_inverse=True)
        rows = np.zeros((len(uniq), nbytes), dtype=np.uint8)
        for r, lo, hi in self._runs(uniq):
            if r.name in self._buf:
                view = np.ndarray((r.size - nbytes + 1, nbytes), np.uint8,
                                  self._buf[r.name], 0, (1, 1))
                rows[lo:hi] = view[uniq[lo:hi] - r.base]
        return rows, inverse

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
        rows = np.asarray(rows, dtype=np.uint8)
        nbytes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64),
                                 addrs.shape)
        k = self._locate(addrs, nbytes)
        written = np.bincount(k, nbytes, len(_NAMES)).tolist()
        for r, n in zip(_NAMES, written):
            self.traffic[r]["write_bits"] += 8 * int(n)
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
        for r, lo, hi in self._runs(at):
            self._writable(r)[at[lo:hi] - r.base] = vals[lo:hi]


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


# ---------------------------------------------------------------------------
# Placement: where a layer's data lives


@dataclass(frozen=True)
class Placement:
    """Where each kind of a layer's data lives under one
    ModeEnergy.weights_region, as regions of default_memory_map(), so a
    capacity is its region's size. The functional path keeps its images
    in `images` and its weight and threshold streams in `streams`,
    whatever the mode. The analytic path keeps parameters in `params`,
    staged in sram when `marshal` and fetched over the HyperRAM link
    when `link`, and live activations, im2col inputs not counted, in
    `activations` together. The paths disagree on activations, on
    weights and on parameter size (blocks padded to tp x tp bits vs
    packed bits); both sides are kept as they are.
    """

    weights_region: str
    images: Region
    streams: Region
    params: Region
    activations: tuple[Region, ...]
    marshal: bool
    link: bool

    @cached_property
    def activation_bytes(self) -> int:
        return sum(r.size for r in self.activations)


_REGION = {r.name: r for r in _BY_BASE}
# one per ModeEnergy.weights_region: its name and its parameter region
PLACEMENTS = {
    name: Placement(name, images=_REGION["l1"], streams=_REGION["sram"],
                    params=_REGION[params],
                    activations=(_REGION["sram"], _REGION["scm"]),
                    marshal=name == "sram_marshal", link=name == "hyperram")
    for name, params in (("scm", "scm"), ("sram", "sram"),
                         ("sram_marshal", "sram"), ("hyperram", "hyperram"))}
# the functional path takes no mode; its images and streams are the
# same in every placement
FUNCTIONAL = PLACEMENTS["sram"]


# ---------------------------------------------------------------------------
# Energy model and operating points


def _check_range(what: str, value: float, positive: bool) -> None:
    """DecodeError naming *what* unless value is finite and > 0
    (positive) or >= 0."""
    if not math.isfinite(value):
        raise DecodeError(f"{what} must be finite, got {value}")
    if not (value > 0 if positive else value >= 0):
        raise DecodeError(f"{what} must be "
                          f"{'positive' if positive else 'non-negative'}, "
                          f"got {value}")


def _check_rate(what: str, value: float, rate: float, unit: str) -> None:
    """DecodeError naming *what* unless rate, the clock or transfer rate
    that value sets, is finite: a finite value may still overflow."""
    if not math.isfinite(rate):
        raise DecodeError(f"{what} {value:g} overflows: {unit} is not "
                          f"finite")


@dataclass(frozen=True)
class ModeEnergy:
    """One voltage/placement operating point.

    Per-op energy splits into the engine datapath and the local memory
    traffic bundled with each op; parameters additionally pay per-bit
    costs depending on where they live (see CoefficientSet). A
    non-finite value, a non-positive clock or one that overflows in Hz,
    a negative energy or a weights_region with no Placement raises
    DecodeError.
    """

    name: str
    engine_fj_per_op: float
    local_fj_per_op: float
    freq_mhz: float
    weights_region: str        # a key of PLACEMENTS

    def __post_init__(self):
        for k in ("engine_fj_per_op", "local_fj_per_op", "freq_mhz"):
            _check_range(f"mode {self.name!r} {k}", getattr(self, k),
                         positive=k == "freq_mhz")
        _check_rate(f"mode {self.name!r} freq_mhz", self.freq_mhz,
                    self.freq_mhz * 1e6, "the clock in Hz")
        if not (isinstance(self.weights_region, str)
                and self.weights_region in PLACEMENTS):
            raise DecodeError(
                f"mode {self.name!r} weights_region "
                f"{self.weights_region!r} is not one of "
                f"{', '.join(PLACEMENTS)}")

    @property
    def total_fj_per_op(self) -> float:
        return self.engine_fj_per_op + self.local_fj_per_op


# built once: ModeEnergy is frozen, so every CoefficientSet may share them
_DEFAULT_MODES = {
    "scm-0v4": ModeEnergy("scm-0v4", 6.42, 15.18, 60.0, "scm"),
    "scm-0v5": ModeEnergy("scm-0v5", 11.94, 28.26, 127.0, "scm"),
    "sram-0v6": ModeEnergy("sram-0v6", 14.2, 100.8, 250.0, "sram"),
    "marshal-0v6": ModeEnergy("marshal-0v6", 14.2, 37.8, 250.0,
                              "sram_marshal"),
    "hyperram": ModeEnergy("hyperram", 14.2, 100.8, 490.0, "hyperram"),
}


@dataclass
class CoefficientSet:
    modes: dict[str, ModeEnergy] = field(
        default_factory=_DEFAULT_MODES.copy)
    marshal_pj_per_bit: float = 8.7     # uDMA repacking inside the cluster
    hyperram_pj_per_bit: float = 28.6   # serial link transfer
    hyperram_bits_per_s: float = 1e9
    marshal_bits_per_cycle: float = 32.0
    leakage_mw: float = 0.0

    def mode(self, name: str) -> ModeEnergy:
        if name not in self.modes:
            raise ModeError(f"unknown mode {name!r}; have "
                            f"{sorted(self.modes)}")
        return self.modes[name]


_SCALAR_KEYS = ("marshal_pj_per_bit", "hyperram_pj_per_bit",
                "hyperram_bits_per_s", "marshal_bits_per_cycle", "leakage_mw")
_RATE_KEYS = ("hyperram_bits_per_s", "marshal_bits_per_cycle")
_MODE_KEYS = tuple(f.name for f in dataclasses.fields(ModeEnergy)
                   if f.name != "name")


def _mapping(doc, what: str, allowed: tuple[str, ...] | None = None) -> dict:
    """doc itself, if it is a mapping whose keys are all in allowed
    (any key when allowed is None); DecodeError otherwise."""
    if not isinstance(doc, dict):
        raise DecodeError(f"{what} must be a mapping, "
                          f"got {type(doc).__name__}")
    for k in doc:
        if allowed is not None and k not in allowed:
            raise DecodeError(f"unknown key {k!r} in {what}; "
                              f"expected one of {', '.join(allowed)}")
    return doc


def _number(value, what: str) -> float:
    """value as a float; DecodeError naming *what* if it is not a number."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DecodeError(f"{what} must be a number, got {value!r}")


def load_coefficients(path: str) -> CoefficientSet:
    """Override coefficients from a YAML file (partial updates allowed;
    a new mode gives every field). Malformed YAML, a document that is
    not a mapping, an unknown or missing key, a value that is not a
    number or out of range, or a marshalling rate in bits/s that
    overflows raises DecodeError."""
    import yaml   # imported where YAML is read, not at load

    with open(path) as f:
        try:
            doc = yaml.safe_load(f) or {}
        except yaml.YAMLError as ex:
            raise DecodeError(f"{path}: not valid YAML: "
                              f"{' '.join(str(ex).split())}") from None
    _mapping(doc, str(path), _SCALAR_KEYS + ("modes",))
    scalars = {k: _number(doc[k], f"{path}: {k}")
               for k in _SCALAR_KEYS if k in doc}
    for k, v in scalars.items():
        _check_range(f"{path}: {k}", v, positive=k in _RATE_KEYS)
    cs = CoefficientSet(**scalars)
    modes = _mapping(doc.get("modes") or {}, f"{path} modes")
    for name, given in modes.items():
        what = f"{path} mode {name!r}"
        _mapping(given, what, _MODE_KEYS)
        missing = [k for k in _MODE_KEYS if k not in given]
        if name not in cs.modes and missing:
            raise DecodeError(f"{what} is new and must give "
                              f"{', '.join(missing)}")
        kw = {k: (v if k == "weights_region" else _number(v, f"{what} {k}"))
              for k, v in given.items()}
        cs.modes[name] = (replace(cs.modes[name], **kw) if name in cs.modes
                          else ModeEnergy(name, **kw))
    for m in cs.modes.values():
        if PLACEMENTS[m.weights_region].marshal:
            _check_rate(f"{path}: marshal_bits_per_cycle",
                        cs.marshal_bits_per_cycle,
                        cs.marshal_bits_per_cycle * (m.freq_mhz * 1e6),
                        f"the marshalling rate in bits/s of mode {m.name!r}")
    return cs


@dataclass
class EnergyBreakdown:
    compute_j: float = 0.0    # ops * (engine + local)
    engine_j: float = 0.0
    local_j: float = 0.0
    marshal_j: float = 0.0    # parameter repacking, per packed bit
    dma_j: float = 0.0        # HyperRAM link, per transferred bit
    leakage_j: float = 0.0

    @property
    def memory_j(self) -> float:
        """Parameter-movement share (criteria compare it to compute)."""
        return self.marshal_j + self.dma_j

    @property
    def total_j(self) -> float:
        return self.compute_j + self.marshal_j + self.dma_j + self.leakage_j

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.compute_j + other.compute_j,
            self.engine_j + other.engine_j,
            self.local_j + other.local_j,
            self.marshal_j + other.marshal_j,
            self.dma_j + other.dma_j,
            self.leakage_j + other.leakage_j)


def account_energy(ops: int, marshal_bits: int, hyperram_bits: int,
                   seconds: float, m: ModeEnergy,
                   cs: CoefficientSet) -> EnergyBreakdown:
    """Energy of ops at operating point m, plus the per-bit parameter
    costs and leakage of cs. Built positionally, in field order: it
    runs once per row of run_network, where keywords cost time."""
    return EnergyBreakdown(ops * m.total_fj_per_op * 1e-15,      # compute
                           ops * m.engine_fj_per_op * 1e-15,
                           ops * m.local_fj_per_op * 1e-15,
                           marshal_bits * cs.marshal_pj_per_bit * 1e-12,
                           hyperram_bits * cs.hyperram_pj_per_bit * 1e-12,
                           seconds * cs.leakage_mw * 1e-3)        # leakage
