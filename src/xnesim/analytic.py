"""The analytic model in plain Python: layer geometry, the closed-form
cycle cost of a layer, the memory map and placement, the energy model,
network descriptors and whole-network runs.

Nothing here imports numpy, so `xnesim report` and `xnesim run net`
run without it. Every module imports these names from here.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

from .errors import (CapacityError, DecodeError, ModeError, PlanError,
                     ShapeError, expect, parse_yaml, read_file)

# ---------------------------------------------------------------------------
# Layer geometry

WORD_BITS = 32


def _check_dim(name, v):
    # numpy's integer types are registered as numbers.Integral
    if not (isinstance(v, numbers.Integral) and v >= 1):
        raise ShapeError(f"{name} must be a positive integer, got {v!r}")


def words_for_bits(nbits: int) -> int:
    """Number of 32-bit words needed to hold *nbits* bits."""
    return (int(nbits) + WORD_BITS - 1) // WORD_BITS


def image_bytes(c: int, h: int, w: int) -> int:
    """Bytes of a packed (c, h, w) image: h*w pixels of whole words."""
    return 4 * h * w * words_for_bits(c)


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one binary layer.

    d is the input-band width per output channel; None means full
    connectivity. A fully-connected layer is fs=1, h_out=w_out=1 with
    nif = flattened input length.

    The derived integers (groups, d_eff, n_acc, h_in, w_in, macs, ops)
    are computed once per spec, on first use; eq, hash and repr read
    the six fields alone.
    """

    nif: int
    nof: int
    fs: int
    h_out: int
    w_out: int
    d: int | None = None

    def __post_init__(self):
        for name in ("nif", "nof", "fs", "h_out", "w_out"):
            _check_dim(name, getattr(self, name))
        if self.d is not None:
            _check_dim("d", self.d)
            if self.d > self.nif:
                raise ShapeError(f"band width {self.d} outside [1, {self.nif}]")
            if self.nif % self.d:
                raise ShapeError(f"band width {self.d} must divide nif={self.nif}")
            if self.nof % self.groups:
                raise ShapeError(
                    f"nof={self.nof} not divisible by {self.groups} bands")

    @cached_property
    def groups(self) -> int:
        return 1 if self.d is None else self.nif // self.d

    @cached_property
    def d_eff(self) -> int:
        """Input channels seen by one output channel."""
        return self.nif // self.groups

    @cached_property
    def n_acc(self) -> int:
        """Receptive-field size: bits accumulated per output element."""
        return self.d_eff * self.fs * self.fs

    @cached_property
    def h_in(self) -> int:
        return self.h_out + self.fs - 1

    @cached_property
    def w_in(self) -> int:
        return self.w_out + self.fs - 1

    @cached_property
    def macs(self) -> int:
        return self.nof * self.h_out * self.w_out * self.n_acc

    @cached_property
    def ops(self) -> int:
        """xnor+popcount counted as 2 ops per accumulated bit."""
        return 2 * self.macs


# ---------------------------------------------------------------------------
# Phase schedule: the engine's cycles in closed form

VALID_TPS = (32, 64, 128, 256, 512)
# fixed per-phase costs, calibrated so a TP=128, 128x128x3x3 layer
# sustains ~218 ops/cycle
STREAM_SETUP = 2    # cycles to arm a streamer channel
PHASE_GAP = 8       # drain/settle cycles between phases
JOB_OVERHEAD = 16   # offload + register copy per job


def check_tp(tp: int) -> None:
    """ShapeError unless tp is one of VALID_TPS."""
    if tp not in VALID_TPS:
        raise ShapeError(f"tp must be one of {VALID_TPS}")


@dataclass(frozen=True)
class PhaseSchedule:
    """Closed-form cycle budget of one job. Frozen: it is held by a
    LayerCost, which every JobPlan of its layer shares, and by each
    JobResult."""

    feature_load: int
    accumulate: int
    threshold: int
    gaps: int
    overhead: int

    @property
    def total(self) -> int:
        return (self.feature_load + self.accumulate + self.threshold
                + self.gaps + self.overhead)

    def times(self, n: int) -> PhaseSchedule:
        """The budget of n jobs with this one's schedule."""
        return PhaseSchedule(self.feature_load * n, self.accumulate * n,
                             self.threshold * n, self.gaps * n,
                             self.overhead * n)


def phase_schedule(fs: int, pixels: int, kin_tiles: int, kout_tiles: int,
                   valid_lanes: int) -> PhaseSchedule:
    """Cycle budget of one job, from plain integers: the job walks
    *pixels* output pixels, each over kout_tiles output tiles of
    fs*fs*kin_tiles blocks, and its tiles hold *valid_lanes* valid
    lanes in total (the sum of the job's valid_out). Per block
    (STREAM_SETUP+1) load + 2 gaps + one accumulate cycle per valid
    lane; per tile a threshold phase of STREAM_SETUP + 8 + 1 + 1 (TP
    threshold bytes over tp/32 ports of 32 bits) plus 2 gaps; one
    overhead per job."""
    blocks_per_tile = fs * fs * kin_tiles
    n_tiles = pixels * kout_tiles
    n_blocks = n_tiles * blocks_per_tile
    return PhaseSchedule(
        feature_load=n_blocks * (STREAM_SETUP + 1),
        accumulate=pixels * blocks_per_tile * valid_lanes,
        # tp threshold bytes over tp/32 ports of 32 bits: 8 at every tp
        threshold=n_tiles * (STREAM_SETUP + 8 + 1 + 1),
        gaps=(2 * n_blocks + 2 * n_tiles) * PHASE_GAP,
        overhead=JOB_OVERHEAD)


# ---------------------------------------------------------------------------
# Memory map and placement
#
# The accelerator lives in a cluster with a small standard-cell memory,
# a larger shared SRAM bank, a core-coupled scratchpad, and an external
# serial HyperRAM behind a 1 Gbit/s link.

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


_REGION = {r.name: r for r in default_memory_map()}
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
#
# Energy is accounted per binary op (engine + local memory access) plus
# per-bit costs for marshalling parameters inside the cluster and for
# fetching them over the HyperRAM link.


def _check_range(what: str, value: float, positive: bool) -> float:
    """value as a float; DecodeError naming *what* unless value is a
    real number, not a bool, and finite as a float and > 0 (positive)
    or >= 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DecodeError(f"{what} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:   # an int too large for a float
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise DecodeError(f"{what} must be finite, got {value}")
    if not (value > 0 if positive else value >= 0):
        raise DecodeError(f"{what} must be "
                          f"{'positive' if positive else 'non-negative'}, "
                          f"got {value}")
    return value


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
    costs depending on where they live (see CoefficientSet). A name
    that is not a string, a value that is not a real number or not
    finite as a float, a non-positive clock or one that overflows in
    Hz, a negative energy or a weights_region with no Placement raises
    DecodeError; the three numbers are kept as floats.
    """

    name: str
    engine_fj_per_op: float
    local_fj_per_op: float
    freq_mhz: float
    weights_region: str        # a key of PLACEMENTS

    def __post_init__(self):
        expect(self.name, str, "mode name", DecodeError)
        for k in ("engine_fj_per_op", "local_fj_per_op", "freq_mhz"):
            object.__setattr__(self, k, _check_range(
                f"mode {self.name!r} {k}", getattr(self, k),
                positive=k == "freq_mhz"))
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
_DEFAULT_MODES = MappingProxyType({
    "scm-0v4": ModeEnergy("scm-0v4", 6.42, 15.18, 60.0, "scm"),
    "scm-0v5": ModeEnergy("scm-0v5", 11.94, 28.26, 127.0, "scm"),
    "sram-0v6": ModeEnergy("sram-0v6", 14.2, 100.8, 250.0, "sram"),
    "marshal-0v6": ModeEnergy("marshal-0v6", 14.2, 37.8, 250.0,
                              "sram_marshal"),
    "hyperram": ModeEnergy("hyperram", 14.2, 100.8, 490.0, "hyperram"),
})
_SCALAR_KEYS = ("marshal_pj_per_bit", "hyperram_pj_per_bit",
                "hyperram_bits_per_s", "marshal_bits_per_cycle", "leakage_mw")
_RATE_KEYS = ("hyperram_bits_per_s", "marshal_bits_per_cycle")


@dataclass(frozen=True)
class CoefficientSet:
    """The operating points by name and the per-bit, transfer and
    leakage coefficients. Frozen, its modes held read-only, and checked
    when built: DecodeError naming the key unless modes is a mapping
    and each mode a ModeEnergy under its own name, each scalar is a
    real number finite as a float (and kept as one), each energy is
    >= 0 and each rate > 0, and the marshalling rate in bits/s of every
    marshalling mode is finite."""

    modes: Mapping[str, ModeEnergy] = field(
        default_factory=lambda: _DEFAULT_MODES)
    marshal_pj_per_bit: float = 8.7     # uDMA repacking inside the cluster
    hyperram_pj_per_bit: float = 28.6   # serial link transfer
    hyperram_bits_per_s: float = 1e9
    marshal_bits_per_cycle: float = 32.0
    leakage_mw: float = 0.0

    def __post_init__(self):
        modes = dict(expect(self.modes, Mapping, "modes", DecodeError))
        for name, m in modes.items():
            if not (isinstance(m, ModeEnergy) and m.name == name):
                raise DecodeError(f"mode {name!r} must be a ModeEnergy "
                                  f"named {name!r}, got {m!r}")
        object.__setattr__(self, "modes", MappingProxyType(modes))
        for k in _SCALAR_KEYS:
            object.__setattr__(self, k, _check_range(
                k, getattr(self, k), positive=k in _RATE_KEYS))
        for m in modes.values():
            if PLACEMENTS[m.weights_region].marshal:
                _check_rate("marshal_bits_per_cycle",
                            self.marshal_bits_per_cycle,
                            self.marshal_bits_per_cycle * (m.freq_mhz * 1e6),
                            f"the marshalling rate in bits/s of mode "
                            f"{m.name!r}")

    def mode(self, name: str) -> ModeEnergy:
        if name not in self.modes:
            raise ModeError(f"unknown mode {name!r}; have "
                            f"{sorted(self.modes)}")
        return self.modes[name]


# the defaults, shared by every run and load that is given no other set
DEFAULT_COEFFICIENTS = CoefficientSet()
_MODE_KEYS = tuple(f.name for f in dataclasses.fields(ModeEnergy)
                   if f.name != "name")


def _number(value):
    """The float a string spells (PyYAML reads 1e400 as a string), or
    value itself: the set's own checks refuse what is not a number."""
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


def load_coefficients(path: str) -> CoefficientSet:
    """Override the default coefficients from a YAML file (partial
    updates allowed; a new mode gives every field; an empty document or
    `modes` keeps the defaults). A document or `modes` that is not a
    mapping, an unknown or missing key, or a set that CoefficientSet or
    ModeEnergy rejects raises DecodeError, as read_file words it."""
    return read_file(path, _coefficients, DecodeError)


def _coefficients(data: bytes) -> CoefficientSet:
    doc = expect(parse_yaml(data, DecodeError), Mapping, "the document",
                 DecodeError, optional=True, keys=_SCALAR_KEYS + ("modes",))
    scalars = {k: _number(doc[k]) for k in _SCALAR_KEYS if k in doc}
    modes = dict(DEFAULT_COEFFICIENTS.modes)
    for name, given in expect(doc.get("modes"), Mapping, "modes",
                              DecodeError, optional=True).items():
        expect(given, Mapping, f"mode {name!r}", DecodeError, keys=_MODE_KEYS,
               needs=() if name in modes else _MODE_KEYS)
        kw = {k: (v if k == "weights_region" else _number(v))
              for k, v in given.items()}
        modes[name] = (replace(modes[name], **kw) if name in modes
                       else ModeEnergy(name, **kw))
    return replace(DEFAULT_COEFFICIENTS, modes=modes, **scalars)


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


# ---------------------------------------------------------------------------
# Layer cost: a layer's jobs in closed form


@dataclass(frozen=True)
class LayerCost:
    """A layer's closed-form facts at one tp. Its jobs share one
    geometry: n_out outputs in kout_tiles tiles, kin_tiles input tiles,
    npg lanes per band within a tile (tp when dense), the band_step
    walk. The properties derive from these fields. Frozen, so that
    every JobPlan of a layer can share one record."""

    spec: LayerSpec
    tp: int
    jobs: int
    n_out: int                # outputs per job
    npg: int
    band_step: int
    kin_tiles: int
    kout_tiles: int
    schedule: PhaseSchedule   # summed over the jobs
    ops: int

    @property
    def cycles(self) -> int:
        return self.schedule.total

    @property
    def weight_bytes(self) -> int:
        """One job's weight stream: kout_tiles * fs * fs * kin_tiles
        blocks of tp*tp bits, remainder tiles padded."""
        return (self.kout_tiles * self.spec.fs ** 2 * self.kin_tiles
                * self.tp * self.tp // 8)

    @property
    def thr_bytes(self) -> int:
        """One job's thresholds: one byte per lane of its output tiles."""
        return self.kout_tiles * self.tp

    @property
    def job_bytes(self) -> int:
        """One job's weight stream, then its thresholds."""
        return self.weight_bytes + self.thr_bytes

    @property
    def _slack(self) -> int:
        """Bytes free after each image in l1: masked tail reads may run
        past it, at worst the banded walk plus one vector."""
        tail = (self.kout_tiles * self.band_step
                + (self.kin_tiles + 1) * self.tp) // 8
        return (max(4 * self.tp, tail) + 3) & ~3

    @property
    def y_offset(self) -> int:
        """Offset of the output image from the input image in l1."""
        s = self.spec
        return image_bytes(s.nif, s.h_in, s.w_in) + self._slack

    def check_buffers(self) -> None:
        """CapacityError unless both images and their slack fit the
        functional placement's images region and the jobs' streams, end
        to end, fit its streams region: before any data exists."""
        s, images, streams = self.spec, FUNCTIONAL.images, FUNCTIONAL.streams
        if (self.y_offset + image_bytes(s.nof, s.h_out, s.w_out)
                + self._slack > images.size):
            raise CapacityError(f"activations exceed the {images.name} "
                                f"region")
        if self.jobs * self.job_bytes > streams.size:
            raise CapacityError(f"weight stream and thresholds exceed "
                                f"the {streams.name} region")


def layer_cost(spec: LayerSpec, tp: int) -> LayerCost:
    """The jobs of a layer at tp, in closed form, by one rule:

      * banded connectivity whose bands fold linearly onto output tiles
        (tp is a multiple of the outputs per band, and the input span
        of one tile is word-aligned): one job using the band_step walk
        plus per-lane masks;
      * anything else: one dense job per band, offset into the shared
        input/output images (band and group sizes must be
        word-aligned). Full connectivity is the single-band case, so it
        never folds.

    Each job's tiles hold its n_out valid lanes, so the summed schedule
    is the job count times one job's. PlanError when the bands neither
    fold nor split into word-aligned per-band jobs."""
    groups, d_eff = spec.groups, spec.d_eff
    npg = spec.nof // groups
    if groups > 1 and tp % npg == 0 and (tp // npg) * d_eff % 32 == 0:
        # bands fold linearly onto output tiles: one job, banded walk
        band_step = (tp // npg) * d_eff
        jobs, n_out, span = 1, spec.nof, band_step
    else:
        # one dense job per band; full connectivity is the single band
        if groups > 1 and (d_eff % 32 or npg % 32):
            raise PlanError(
                f"band width {d_eff} / band outputs {npg} "
                f"must be word-aligned to split into per-band jobs")
        jobs, n_out, npg, band_step, span = groups, npg, tp, 0, d_eff
    kin_tiles, kout_tiles = (span + tp - 1) // tp, (n_out + tp - 1) // tp
    job = phase_schedule(spec.fs, spec.h_out * spec.w_out, kin_tiles,
                         kout_tiles, n_out)
    return LayerCost(spec, tp, jobs, n_out, npg, band_step, kin_tiles,
                     kout_tiles, job.times(jobs), spec.ops)


# ---------------------------------------------------------------------------
# Network descriptors
#
# Layers are engine-shaped: stride-1 valid convolutions over inputs that
# carry an explicit zero-bit halo, so a padded stride-1 network layer of
# output h x w has input (h+fs-1) x (w+fs-1). Two reshapes keep every
# layer in that form:
#
#   * stride-2 convolutions are described by their output geometry with
#     the pre-strided input (same MAC count, engine-native walk);
#   * a large-kernel stem is im2col'd to fs=1 with nif = c*k*k; its
#     unfolded input buffer is produced on the fly and therefore does
#     not count toward resident activations.
#
# Classifier heads are flattened fully-connected layers (fs=1, 1x1).
# Pooling between layers is OR pooling (max over +/-1) or majority
# (average then sign).
#
# Parameter footprint is counted packed: d_eff weight bits per output
# channel tap plus one 8-bit threshold per channel.


@dataclass(frozen=True)
class NetLayer:
    name: str
    spec: LayerSpec
    pools: tuple[str, ...] = ()   # applied after the layer: "max2" | "avg2"
    im2col: bool = False          # input buffer is streamed, not resident

    @cached_property
    def packed_param_bits(self) -> int:
        s = self.spec
        return s.nof * s.d_eff * s.fs * s.fs + 8 * s.nof

    def input_buffer_bytes(self) -> int:
        """Resident halo'd input image, one bit per channel padded to
        whole words per pixel."""
        s = self.spec
        return image_bytes(s.nif, s.h_in, s.w_in)

    def output_buffer_bytes(self) -> int:
        s = self.spec
        return image_bytes(s.nof, s.h_out, s.w_out)


def _activation_peak(layers: tuple[NetLayer, ...]) -> int:
    """Largest set of activation buffers alive at once: while a layer
    runs, its (halo'd) input and raw output coexist; while pooling, the
    raw output and the next layer's halo'd input do. im2col inputs are
    not resident."""
    peak = 0
    for i, l in enumerate(layers):
        live = l.output_buffer_bytes()
        if not l.im2col:
            live += l.input_buffer_bytes()
        peak = max(peak, live)
        if i + 1 < len(layers):
            nxt = layers[i + 1]
            handoff = l.output_buffer_bytes() + nxt.input_buffer_bytes()
            peak = max(peak, handoff)
    return peak


def _fit_error(net: str, bits: int, act: int, p: Placement) -> str | None:
    """Why a network named *net*, of bits packed parameter bits and an
    activation peak of act bytes, does not fit placement p: its
    parameters must fit the parameter region, its activations the
    activation regions together. None when it fits."""
    if bits > 8 * p.params.size:
        return (f"{net}: {bits / 8 / KIB:.1f} KiB of parameters exceed "
                f"the {p.params.size / KIB:.0f} KiB of {p.params.name} in "
                f"the {p.weights_region} placement")
    if act > p.activation_bytes:
        names = " + ".join(r.name for r in p.activations)
        return (f"{net}: {act / KIB:.1f} KiB of live activations exceed "
                f"the {p.activation_bytes / KIB:.0f} KiB of {names}")
    return None


@dataclass(frozen=True)
class NetworkDescriptor:
    """A network's layers in order, and its op count, footprint and fit
    outcome per placement, fixed when the descriptor is built. A list
    of layers is stored as a tuple; an empty one raises ShapeError.
    fit_errors maps each key of PLACEMENTS to check_fit's CapacityError
    message, or None where the network fits. profiles holds the
    analytic runner's outcome per tp (see network_profile), the one
    mutable part; it is not compared, so equal descriptors stay equal
    and hash alike."""

    name: str
    layers: tuple[NetLayer, ...]
    total_ops: int = field(init=False, repr=False, compare=False)
    packed_param_bits: int = field(init=False, repr=False, compare=False)
    activation_peak_bytes: int = field(init=False, repr=False,
                                       compare=False)
    fit_errors: Mapping[str, str | None] = field(init=False, repr=False,
                                                 compare=False)
    profiles: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError(f"network {self.name!r} has no layers")
        bits = sum(l.packed_param_bits for l in layers)
        peak = _activation_peak(layers)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "total_ops",
                           sum(l.spec.ops for l in layers))
        object.__setattr__(self, "packed_param_bits", bits)
        object.__setattr__(self, "activation_peak_bytes", peak)
        object.__setattr__(self, "fit_errors", MappingProxyType(
            {k: _fit_error(self.name, bits, peak, p)
             for k, p in PLACEMENTS.items()}))


def make_resnet(depth: int) -> NetworkDescriptor:
    """Binary ResNet-18/34 in engine form.

    The 7x7/s2 stem is im2col'd (nif = 3*49 = 147, fs = 1, 112x112).
    Identity and pooling shortcuts only; no 1x1 downsample convolutions.
    The head flattens 7x7x512 straight into the classifier.
    """
    if depth == 18:
        blocks = [2, 2, 2, 2]
    elif depth == 34:
        blocks = [3, 4, 6, 3]
    else:
        raise ShapeError(f"resnet depth {depth} is not 18 or 34")
    layers = [NetLayer(
        "conv1", LayerSpec(nif=147, nof=64, fs=1, h_out=112, w_out=112),
        pools=("max2",), im2col=True)]
    chans = [64, 128, 256, 512]
    sizes = [56, 28, 14, 7]
    c_in = 64
    for s, (c, hw, n) in enumerate(zip(chans, sizes, blocks), start=1):
        for b in range(n):
            for conv in (1, 2):
                nif = c_in if (b == 0 and conv == 1) else c
                layers.append(NetLayer(
                    f"conv{s+1}_{b+1}{'ab'[conv-1]}",
                    LayerSpec(nif=nif, nof=c, fs=3, h_out=hw, w_out=hw)))
        c_in = c
    layers.append(NetLayer(
        "fc", LayerSpec(nif=512 * 7 * 7, nof=1000, fs=1, h_out=1, w_out=1)))
    return NetworkDescriptor(f"resnet{depth}", layers)


MVGG_CHANNELS = [128, 128, 256, 256, 512, 512]


def make_mvgg(groups: int | str) -> NetworkDescriptor:
    """Six 3x3 conv layers on 32x32 with pooling every two, a final
    majority average pool, and a 2048->10 classifier.

    `groups` caps how many input bands each conv is split into (the
    first layer is always dense); "f" splits maximally, leaving one
    input channel per band.
    """
    full = isinstance(groups, str)
    if full:
        if groups.lower() != "f":
            raise ShapeError(f"unknown mvgg variant {groups!r}")
        gcap = None
    else:
        if groups < 1 or (groups & (groups - 1)):
            raise ShapeError("group count must be a power of two")
        gcap = groups
    layers = []
    sizes = [32, 32, 16, 16, 8, 8]
    c_in = 3
    for i, (c, hw) in enumerate(zip(MVGG_CHANNELS, sizes), start=1):
        if i == 1:
            d = None
        else:
            g = min(c_in, c) if gcap is None else min(gcap, c_in, c)
            d = c_in // g
        pools = ()
        if i in (2, 4):
            pools = ("max2",)
        elif i == 6:
            pools = ("max2", "avg2")
        layers.append(NetLayer(
            f"conv{i}", LayerSpec(nif=c_in, nof=c, fs=3, h_out=hw, w_out=hw,
                                  d=d), pools=pools))
        c_in = c
    layers.append(NetLayer(
        "fc", LayerSpec(nif=512 * 2 * 2, nof=10, fs=1, h_out=1, w_out=1)))
    return NetworkDescriptor("mvgg-f" if full else f"mvgg-{groups}", layers)


def get_network(name: str) -> NetworkDescriptor:
    n = name.lower()
    if n in ("resnet18", "resnet-18"):
        return make_resnet(18)
    if n in ("resnet34", "resnet-34"):
        return make_resnet(34)
    if n == "mvgg-f":
        return make_mvgg("f")
    if n.startswith("mvgg-") and n[5:].isdecimal():
        return make_mvgg(int(n[5:]))
    raise ShapeError(f"unknown network {name!r}")


# ---------------------------------------------------------------------------
# Analytic network runs
#
# Network runs plan no job. A layer's cycles and ops come from
# layer_cost; a network's per-layer (name, ops, packed bits, cycles) at
# one tp is kept on its descriptor, so a run only prices that profile
# at its mode. Energy comes from the operating point, and transfer time
# overlaps compute (parameters stream through a ring buffer at block
# granularity, so staging capacity never serializes a layer).


def network_profile(net: NetworkDescriptor,
                    tp: int) -> tuple[tuple[str, int, int, int], ...]:
    """Per layer of net at tp, (name, ops, packed_param_bits, cycles):
    all that run_network reads of a layer, the same in every mode. The
    first call per tp keeps its outcome in net.profiles: the profile,
    or the message of the first layer's PlanError, which every later
    call raises as a new PlanError."""
    out = net.profiles.get(tp)
    if out is None:
        try:
            costs = [layer_cost(nl.spec, tp) for nl in net.layers]
            out = tuple((nl.name, c.ops, nl.packed_param_bits, c.cycles)
                        for nl, c in zip(net.layers, costs))
        except PlanError as ex:
            out = str(ex)
        net.profiles[tp] = out
    if isinstance(out, str):
        raise PlanError(out)
    return out


@dataclass
class LayerRow:
    name: str
    ops: int
    param_bits: int
    cycles: int
    compute_s: float
    transfer_s: float
    bound: str
    energy: EnergyBreakdown

    @property
    def seconds(self) -> float:
        return max(self.compute_s, self.transfer_s)


@dataclass
class NetworkReport:
    network: str
    mode: str
    tp: int
    rows: list[LayerRow] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return sum(r.ops for r in self.rows)

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.rows)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.rows)

    @property
    def fps(self) -> float:
        return 1.0 / self.total_seconds

    @property
    def energy(self) -> EnergyBreakdown:
        tot = EnergyBreakdown()
        for r in self.rows:
            tot = tot + r.energy
        return tot

    def to_text(self) -> str:
        h = (f"{'layer':<12}{'ops':>14}{'cycles':>12}{'op/cy':>8}"
             f"{'time[us]':>11}{'bound':>9}{'E[uJ]':>10}")
        lines = [f"network {self.network}  mode {self.mode}  tp {self.tp}",
                 h, "-" * len(h)]
        for r in self.rows:
            lines.append(
                f"{r.name:<12}{r.ops:>14}{r.cycles:>12}"
                f"{r.ops / r.cycles:>8.1f}"
                f"{r.seconds * 1e6:>11.2f}{r.bound:>9}"
                f"{r.energy.total_j * 1e6:>10.4f}")
        e = self.energy
        lines.append("-" * len(h))
        lines.append(
            f"{'total':<12}{self.total_ops:>14}{self.total_cycles:>12}"
            f"{self.total_ops / self.total_cycles:>8.1f}"
            f"{self.total_seconds * 1e6:>11.2f}{'':>9}"
            f"{e.total_j * 1e6:>10.4f}")
        lines.append(
            f"energy[uJ]: compute {e.compute_j * 1e6:.4f} "
            f"(engine {e.engine_j * 1e6:.4f} local {e.local_j * 1e6:.4f}) "
            f"marshal {e.marshal_j * 1e6:.4f} dma {e.dma_j * 1e6:.4f} "
            f"leakage {e.leakage_j * 1e6:.4f}")
        lines.append(f"throughput: {self.fps:.2f} inference/s "
                     f"({self.total_ops / self.total_seconds / 1e9:.2f} Gop/s)")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["layer,ops,param_bits,cycles,compute_s,transfer_s,bound,"
                 "compute_j,marshal_j,dma_j,leakage_j,total_j"]
        for r in self.rows:
            e = r.energy
            lines.append(
                f"{r.name},{r.ops},{r.param_bits},{r.cycles},"
                f"{r.compute_s:.9g},{r.transfer_s:.9g},{r.bound},"
                f"{e.compute_j:.9g},{e.marshal_j:.9g},{e.dma_j:.9g},"
                f"{e.leakage_j:.9g},{e.total_j:.9g}")
        return "\n".join(lines)


def check_fit(net: NetworkDescriptor, mode_region: str) -> None:
    """CapacityError unless the network fits the placement of the
    mode's weights_region: its packed parameters in the parameter
    region, its activation peak in the activation regions together.
    The message is the one the descriptor fixed when it was built."""
    msg = net.fit_errors[mode_region]
    if msg is not None:
        raise CapacityError(msg)


def run_network(net: NetworkDescriptor, mode: str, tp: int = 128,
                coeffs: CoefficientSet | None = None) -> NetworkReport:
    """Analytic pass: cycle budgets, transfer overlap, energy. Each row
    prices network_profile(net, tp) at the mode, with coeffs or else
    DEFAULT_COEFFICIENTS. DecodeError, naming the mode and the
    coefficient, unless the total time in us, the ops per second and
    the energy in uJ are finite: a coefficient that loads may still be
    too small or too large to print."""
    cs = coeffs or DEFAULT_COEFFICIENTS
    m = cs.mode(mode)
    check_tp(tp)   # before check_fit
    check_fit(net, m.weights_region)
    p = PLACEMENTS[m.weights_region]
    f_hz = m.freq_mhz * 1e6
    if p.link:
        bits_per_s = cs.hyperram_bits_per_s
    elif p.marshal:
        bits_per_s = cs.marshal_bits_per_cycle * f_hz
    else:
        bits_per_s = math.inf   # resident parameters: no transfer
    rep = NetworkReport(net.name, mode, tp)
    total_s = 0.0
    for name, ops, bits, cycles in network_profile(net, tp):
        compute_s = cycles / f_hz
        transfer_s = bits / bits_per_s
        if transfer_s > compute_s:
            bound, sec = "memory", transfer_s
        else:
            bound, sec = "compute", compute_s
        total_s += sec
        energy = account_energy(ops, bits if p.marshal else 0,
                                bits if p.link else 0, sec, m, cs)
        rep.rows.append(LayerRow(name, ops, bits, cycles, compute_s,
                                 transfer_s, bound, energy))
    # every total is checked in the units printed; every layer has
    # cycles, so total_s > 0
    if not math.isfinite(total_s * 1e6):
        small = ("freq_mhz" if not math.isfinite(
                     sum(r.compute_s for r in rep.rows) * 1e6)
                 else "hyperram_bits_per_s" if p.link
                 else "marshal_bits_per_cycle")
        raise DecodeError(f"mode {mode!r}: total time is not finite; "
                          f"{small} is too small")
    if not math.isfinite(net.total_ops / total_s):
        raise DecodeError(f"mode {mode!r}: ops per second are not "
                          f"finite; freq_mhz is too large")
    # the energy from the network's totals bounds the sum of the rows'
    # (all terms are >= 0); the margin covers the rows' rounding
    bits = net.packed_param_bits
    e = account_energy(net.total_ops, bits if p.marshal else 0,
                       bits if p.link else 0, total_s, m, cs)
    if not math.isfinite(e.total_j * 1e6 * (1 + 1e-9)):
        terms = {"engine_fj_per_op": e.engine_j,
                 "local_fj_per_op": e.local_j,
                 "marshal_pj_per_bit": e.marshal_j,
                 "hyperram_pj_per_bit": e.dma_j, "leakage_mw": e.leakage_j}
        # the first term that is not finite in uJ; when each one is,
        # their sum overflows, and the largest is named
        key = next((k for k, j in terms.items()
                    if not math.isfinite(j * 1e6 * (1 + 1e-9))),
                   max(terms, key=terms.get))
        raise DecodeError(f"mode {mode!r}: energy is not finite; "
                          f"{key} is too large")
    return rep
