"""Mapping layers onto the engine and running whole networks.

layer_cost maps a layer to engine jobs by one rule:

  * banded connectivity whose bands fold linearly onto output tiles
    (tp is a multiple of the outputs per band, and the input span of
    one tile is word-aligned): one job using the band_step walk plus
    per-lane masks;
  * anything else: one dense job per band, offset into the shared
    input/output images (band and group sizes must be word-aligned).
    Full connectivity is the single-band case, so it never folds.

Its LayerCost is the one record of a layer's closed-form facts; the
functional path's plan_layer builds each JobPlan to hold it.

The weight stream holds, per (output tile, tap, input tile), TP lanes
of TP bits each, lane vectors aligned with where the feature vector
carries that lane's band; remainder tiles are padded to full blocks in
storage. Thresholds are one byte per lane, TP bytes per output tile.

Network runs are analytic and plan no job. A layer's cycles and ops
come from layer_cost; a network's per-layer (name, ops, packed bits,
cycles) at one tp is kept on its descriptor, so a run only prices that
profile at its mode. Energy comes from the operating point, and
transfer time overlaps compute (parameters stream through a ring
buffer at block granularity, so staging capacity never serializes a
layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bintensor import (BinaryTensor, BinaryWeights, bit_mismatches,
                        image_bytes)
from .bits import words_for_bits
from .engine import (Engine, EngineConfig, JobDescriptor, PhaseSchedule,
                     encode_thresholds, phase_schedule)
from .errors import (CapacityError, DecodeError, PlanError, ShapeError,
                     XneError)
from .golden import (LayerSpec, ThresholdSpec, check_layer_inputs,
                     derive_thresholds, layer_golden, random_batchnorm,
                     random_layer_data)
from .memory import (FUNCTIONAL, KIB, PLACEMENTS, CoefficientSet,
                     EnergyBreakdown, Memory, account_energy)
from .microcode import JobGeometry
from .networks import NetworkDescriptor


@dataclass
class JobPlan:
    """One engine job of a layer: geometry, connectivity, its layer's
    LayerCost, and where it sits inside the layer's shared images."""

    geom: JobGeometry
    valid_out: np.ndarray
    cost: LayerCost           # band width spec.d_eff, npg lanes per band
    ch_base: int              # first output channel = y bit offset
    x_bit_offset: int

    def masks(self) -> np.ndarray:
        """Connectivity, (kout_tiles, kin_tiles, tp, tp//32) words: bit
        b of lane L in tile (ko, ki) is set iff the lane is valid and
        walked span position ki*tp + b lies in the lane's band, which is
        d_eff wide from (L // npg) * d_eff (npg = tp: full connectivity).
        A word holding band bits [b0, b1) is (1 << b1) - (1 << b0)."""
        g, d = self.geom, self.cost.spec.d_eff
        lo = (np.arange(g.tp)[:, None] // self.cost.npg) * d  # (lane, 1)
        first = 32 * np.arange(g.kin_tiles * g.tp // 32).reshape(
            g.kin_tiles, 1, g.tp // 32)         # span bit 0 of (ki, word)
        b0, b1 = (np.clip(e - first, 0, 32) for e in (lo, lo + d))
        valid = np.arange(g.tp)[:, None] < self.valid_out[:, None, None, None]
        return (((1 << b1) - (1 << b0)) * valid).astype(np.uint32)

    def valid_lanes(self) -> np.ndarray:
        """Flat lane indices ko*tp + L with L < valid_out[ko]: lane i
        drives output channel ch_base + i."""
        return np.flatnonzero(np.arange(self.geom.tp)
                              < self.valid_out[:, None])


@dataclass
class LayerPlan:
    jobs: list[JobPlan]
    cost: LayerCost           # the closed form the jobs are built from

    def schedules(self, cfg: EngineConfig) -> list[PhaseSchedule]:
        """Each job's phase schedule. It depends on the job's geometry
        alone, which holds its tp; cfg is not read."""
        return [phase_schedule(j.geom.fs, j.geom.h_out * j.geom.w_out,
                               j.geom.kin_tiles, j.geom.kout_tiles,
                               int(j.valid_out.sum()))
                for j in self.jobs]

    def cycles(self, cfg: EngineConfig) -> int:
        return sum(s.total for s in self.schedules(cfg))


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
    """The fold-or-split rule of the module docstring, in closed form.
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


def plan_layer(spec: LayerSpec, tp: int) -> LayerPlan:
    """The jobs of layer_cost(spec, tp). Job i is band i when the
    bands split: its outputs and input band start i bands in."""
    cost = layer_cost(spec, tp)
    valid_out = np.array([min(tp, cost.n_out - k)
                          for k in range(0, cost.n_out, tp)])
    wpp_in, wpp_out = words_for_bits(spec.nif), words_for_bits(spec.nof)
    geom = JobGeometry(tp, spec.fs, spec.h_out, spec.w_out,
                       kin_tiles=cost.kin_tiles, kout_tiles=cost.kout_tiles,
                       band_step=cost.band_step,
                       x_pixel_stride=32 * wpp_in,
                       x_row_stride=32 * wpp_in * spec.w_in,
                       y_pixel_stride=32 * wpp_out,
                       y_row_stride=32 * wpp_out * spec.w_out)
    return LayerPlan([JobPlan(geom, valid_out, cost, i * cost.n_out,
                              x_bit_offset=i * spec.d_eff)
                      for i in range(cost.jobs)], cost)


def weight_stream_words(job: JobPlan, spec: LayerSpec,
                        w: BinaryWeights) -> np.ndarray:
    """Engine-ready stream: blocks of TP lane vectors in
    (k_out tile, fi, fj, k_in tile) order. Bit b of lane L in block
    (ko, fi, fj, ki) is the weight of channel ch_base + ko*tp + L at
    band position ki*tp + b - (L // npg) * d_eff, zero outside
    job.masks().

    One pass for every kind of job, on words: each valid lane's band
    words, pad bits cleared, shift in uint64 to its band start in the
    walked span; each word's high half folds into the next span word."""
    g = job.geom
    tp, d = g.tp, job.cost.spec.d_eff
    lanes = job.valid_lanes()
    rows = w.words[job.ch_base + lanes].astype(np.uint64)  # (lane, fs, fs, W)
    rows[..., -1] &= 0xFFFFFFFF >> -d % 32
    start = (lanes % tp // job.cost.npg) * d
    shifted = rows << (start % 32).astype(np.uint64)[:, None, None, None]
    # span word k + 1 holds the word shifted to k; word 0 stays zero
    col = (start // 32 + 1)[:, None] + np.arange(rows.shape[-1])
    wide = np.zeros((g.kout_tiles * tp, g.kin_tiles * tp // 32 + 1, g.fs,
                     g.fs), dtype=np.uint64)
    wide[lanes[:, None], col] = shifted.transpose(0, 3, 1, 2)
    words = ((wide[:, 1:] & 0xFFFFFFFF) | (wide[:, :-1] >> 32)).astype(
        np.uint32).reshape(g.kout_tiles, tp, g.kin_tiles, tp // 32, g.fs, g.fs)
    return words.transpose(0, 4, 5, 2, 1, 3).reshape(-1)


def threshold_stream_bytes(job: JobPlan, thr: ThresholdSpec) -> np.ndarray:
    """One byte per output lane (zero for invalid lanes)."""
    lanes = job.valid_lanes()
    out = np.zeros(job.geom.kout_tiles * job.geom.tp, dtype=np.uint8)
    out[lanes] = encode_thresholds(thr)[job.ch_base + lanes]
    return out


def load_job(mem: Memory, job: JobPlan, w: BinaryWeights, thr: ThresholdSpec,
             w_base: int, x_base: int, y_base: int) -> JobDescriptor:
    """Write the job's weight stream at w_base and its threshold bytes
    right after it, and return the descriptor that offloads the job.
    x_base and y_base are the layer's input and output images; the
    job's bit offsets into them (x_bit_offset, ch_base) are added here.
    CapacityError when the region holding w_base cannot hold stream and
    thresholds; both sizes are the job's closed form (job.cost), so a
    job that cannot fit builds nothing."""
    cost = job.cost
    region = mem.region_of(w_base, 0)
    if not region.contains(w_base, cost.job_bytes):
        raise CapacityError(f"weight stream and thresholds exceed "
                            f"the {region.name} region")
    thr_base = w_base + cost.weight_bytes
    mem.write_words(w_base, weight_stream_words(job, cost.spec, w))
    mem.write(thr_base, threshold_stream_bytes(job, thr))
    return JobDescriptor(
        geom=job.geom, w_base=w_base,
        x_base=x_base + job.x_bit_offset // 8,
        y_base=y_base + job.ch_base // 8,
        thr_base=thr_base, shift=thr.shift,
        masks=job.masks(), valid_out=job.valid_out)


@dataclass
class LayerRun:
    output: BinaryTensor
    results: list
    plan: LayerPlan

    @property
    def cycles(self) -> int:
        return sum(r.cycles for r in self.results)

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.results)


def execute_layer(cfg: EngineConfig, spec: LayerSpec, x: BinaryTensor,
                  w: BinaryWeights, thr: ThresholdSpec,
                  mem: Memory | None = None) -> LayerRun:
    """Build memory images, run every job, decode the output tensor:
    images in the functional placement's images region, the jobs'
    streams end to end from the base of its streams region."""
    check_layer_inputs(x, w, spec)
    if thr.nof != spec.nof:
        raise ShapeError("threshold channel count mismatch")
    plan = plan_layer(spec, cfg.tp)
    cost = plan.cost
    mem = mem or Memory()
    cost.check_buffers()
    x_base = FUNCTIONAL.images.base
    y_base = x_base + cost.y_offset
    mem.write_words(x_base, x.flat_words())

    eng = Engine(cfg, mem)
    runs = []
    for i, job in enumerate(plan.jobs):
        w_base = FUNCTIONAL.streams.base + i * cost.job_bytes  # word aligned
        desc = load_job(mem, job, w, thr, w_base, x_base, y_base)
        runs.append(eng.run_next(desc))

    y_bytes = image_bytes(spec.nof, spec.h_out, spec.w_out)
    out_words = mem.read_words(y_base, y_bytes // 4).reshape(
        spec.h_out, spec.w_out, -1)
    return LayerRun(BinaryTensor(spec.nof, spec.h_out, spec.w_out, out_words),
                    runs, plan)


# ---------------------------------------------------------------------------
# Analytic network runs


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
    """CapacityError unless the descriptor's footprint, stored when it
    was built, fits the placement of the mode's weights_region: its
    packed parameters in the parameter region, its activation peak in
    the activation regions together."""
    p = PLACEMENTS[mode_region]
    bits = net.packed_param_bits
    if bits > 8 * p.params.size:
        raise CapacityError(
            f"{net.name}: {bits / 8 / KIB:.1f} KiB of parameters exceed "
            f"the {p.params.size / KIB:.0f} KiB of {p.params.name} in the "
            f"{mode_region} placement")
    act = net.activation_peak_bytes
    if act > p.activation_bytes:
        names = " + ".join(r.name for r in p.activations)
        raise CapacityError(
            f"{net.name}: {act / KIB:.1f} KiB of live activations exceed "
            f"the {p.activation_bytes / KIB:.0f} KiB of {names}")


def run_network(net: NetworkDescriptor, mode: str, tp: int = 128,
                coeffs: CoefficientSet | None = None) -> NetworkReport:
    """Analytic pass: cycle budgets, transfer overlap, energy. Each row
    prices network_profile(net, tp) at the mode. DecodeError, naming
    the mode and the coefficient, unless the total time in us, the ops
    per second and each energy term in uJ are finite: a coefficient
    that loads may still be too small or too large to print."""
    cs = coeffs or CoefficientSet()
    m = cs.mode(mode)
    EngineConfig(tp=tp)   # rejects a bad tp before check_fit
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
        raise DecodeError(f"mode {mode!r}: energy is not finite; "
                          f"{max(terms, key=terms.get)} is too large")
    return rep


def verify_layer(cfg: EngineConfig, spec: LayerSpec,
                 rng: np.random.Generator) -> tuple[LayerRun, int]:
    """One layer on data drawn from rng, after its fit is checked in
    closed form: (run, output bits that differ from layer_golden)."""
    layer_cost(spec, cfg.tp).check_buffers()
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    run = execute_layer(cfg, spec, x, w, thr)
    return run, bit_mismatches(run.output, layer_golden(x, w, spec, thr))


def verify_layers(n_layers: int, seed: int, tp: int = 128,
                  max_spatial: int = 8) -> list[dict]:
    """Random engine-vs-reference sweeps; returns a record per layer
    with a `mismatches` count (0 everywhere when the engine is right).
    ShapeError unless n_layers >= 1: an empty sweep proves nothing.
    A layer that raises XneError re-raises the same type, its message
    prefixed with the layer index, spec, --seed and --tp."""
    if n_layers < 1:
        raise ShapeError(f"need at least one layer, got {n_layers}")
    rng = np.random.default_rng(seed)
    cfg = EngineConfig(tp=tp)
    records = []
    for i in range(n_layers):
        spec = random_layer_spec(rng, max_spatial=max_spatial)
        try:
            run, mism = verify_layer(cfg, spec, rng)
        except XneError as ex:
            raise type(ex)(f"layer {i}: {spec}, --seed {seed} --tp {tp}: "
                           f"{ex}") from ex
        records.append({"layer": i, "spec": spec, "mismatches": mism,
                        "ops": run.ops})
    return records


def random_layer_spec(rng: np.random.Generator,
                      max_spatial: int = 8) -> LayerSpec:
    """Geometry mix the verifier sweeps: any channel counts, the three
    filter sizes, dense or banded with one band per output channel."""
    fs = int(rng.choice([1, 3, 5]))
    h = int(rng.integers(1, max_spatial + 1))
    w = int(rng.integers(1, max_spatial + 1))
    kind = int(rng.integers(0, 4))
    if kind == 0:  # banded, nif = d * nof
        d = int(rng.choice([1, 2, 4]))
        nof = int(rng.integers(1, 256 // d + 1))
        return LayerSpec(nif=d * nof, nof=nof, fs=fs, h_out=h, w_out=w, d=d)
    nif = int(rng.integers(1, 257))
    nof = int(rng.integers(1, 257))
    return LayerSpec(nif=nif, nof=nof, fs=fs, h_out=h, w_out=w)


def random_threshold_spec(rng: np.random.Generator,
                          spec: LayerSpec) -> ThresholdSpec:
    """Thresholds folded from random batch-norm parameters, so they
    mostly land inside the reachable popcount range."""
    bn = random_batchnorm(rng, spec.nof, spec.n_acc)
    return derive_thresholds(bn, spec)
