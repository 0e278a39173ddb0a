"""Mapping layers onto the engine: the functional layer path.

plan_layer builds a layer's jobs from its LayerCost, the one record of
a layer's closed-form facts (xnesim.analytic.layer_cost, which applies
the fold-or-split rule); each JobPlan holds it.

The weight stream holds, per (output tile, tap, input tile), TP lanes
of TP bits each, lane vectors aligned with where the feature vector
carries that lane's band; remainder tiles are padded to full blocks in
storage. Thresholds are one byte per lane, TP bytes per output tile.

The analytic network runs (run_network and what it reads) are defined
in xnesim.analytic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (FUNCTIONAL, LayerCost, LayerSpec, PhaseSchedule,
                       image_bytes, layer_cost, phase_schedule,
                       run_network as run_network, words_for_bits)
from .bintensor import BinaryTensor, BinaryWeights, bit_mismatches
from .engine import Engine, EngineConfig, JobDescriptor, encode_thresholds
from .errors import CapacityError, ShapeError, XneError
from .golden import (ThresholdSpec, check_layer_inputs, derive_thresholds,
                     layer_golden, random_batchnorm, random_layer_data)
from .memory import Memory
from .microcode import JobGeometry


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
