"""The convolution engine.

Per job the engine walks the offsets produced by the microcode and runs
a three-phase pipeline per output tile:

  FeatureLoad   fetch one TP-bit feature vector (reused for all lanes)
  Accumulate    one lane per cycle: xnor the feature vector with that
                lane's TP-bit weight vector, AND with the lane's
                connectivity mask, popcount into a 16-bit saturating
                accumulator
  Threshold     fetch TP threshold bytes, compare (inclusive), emit one
                output bit per valid lane

A threshold byte holds the 7-bit two's-complement quantized threshold
in bits 6..0 and the comparison direction in bit 7 (set = negative
batch-norm scale, compare acc <= tau). The job's shift scales tau back
to the popcount domain.

Two job register sets are double buffered; offloading a third while
both are pending is an error. Cycle counts use fixed per-phase
constants (stream setup, inter-phase gap, job overhead) calibrated so
a TP=128, 128x128x3x3 layer sustains ~218 ops/cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .bits import pack_bits
from .errors import BusyError, PlanError, ShapeError
from .golden import SHIFT_MAX, ThresholdSpec
from .memory import Memory
from .microcode import (JobGeometry, UcodeState, reference_program,
                        ucode_registers)

ACC_MAX = 0xFFFF
VALID_TPS = (32, 64, 128, 256, 512)
STREAM_SETUP = 2    # cycles to arm a streamer channel
PHASE_GAP = 8       # drain/settle cycles between phases
JOB_OVERHEAD = 16   # offload + register copy per job


@dataclass(frozen=True)
class EngineConfig:
    tp: int = 128
    saturate: bool = True

    def __post_init__(self):
        if self.tp not in VALID_TPS:
            raise ShapeError(f"tp must be one of {VALID_TPS}")

    @property
    def ports(self) -> int:
        return self.tp // 32


def encode_thresholds(thr: ThresholdSpec) -> np.ndarray:
    """One byte per output channel, in channel order."""
    return ((thr.tau_q & 0x7F)
            | np.where(thr.lambda_positive, 0, 0x80)).astype(np.uint8)


def decode_thresholds(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tau_q, lambda_positive) of threshold bytes: tau_q is bits 6..0
    sign-extended to int64, lambda_positive is bit 7 clear."""
    b = np.asarray(b, dtype=np.uint8)
    return ((b & 0x7F) ^ 0x40).astype(np.int64) - 0x40, (b & 0x80) == 0


@dataclass
class JobDescriptor:
    """Everything one offload carries: the walk geometry, the four base
    byte addresses, the threshold shift, per-(tile, input tile, lane)
    connectivity masks and the number of valid lanes per output tile."""

    geom: JobGeometry
    w_base: int
    x_base: int
    y_base: int
    thr_base: int
    shift: int
    masks: np.ndarray       # (kout_tiles, kin_tiles, tp, tp//32) uint32
    valid_out: np.ndarray   # (kout_tiles,) int

    def __post_init__(self):
        g = self.geom
        wpv = g.tp // 32
        shape = (g.kout_tiles, g.kin_tiles, g.tp, wpv)
        self.masks = np.ascontiguousarray(self.masks, dtype=np.uint32)
        if self.masks.shape != shape:
            raise ShapeError(f"masks shape {self.masks.shape} != {shape}")
        self.valid_out = np.asarray(self.valid_out, dtype=np.int64)
        if self.valid_out.shape != (g.kout_tiles,):
            raise ShapeError("need one valid-lane count per output tile")
        if np.any(self.valid_out < 1) or np.any(self.valid_out > g.tp):
            raise ShapeError("valid lanes per tile must be in [1, tp]")
        for name in ("w_base", "x_base", "y_base"):
            if getattr(self, name) % 4:
                raise ShapeError(f"{name} must be word aligned")
        if not 0 <= self.shift <= SHIFT_MAX:
            raise ShapeError(f"shift outside [0, {SHIFT_MAX}]")


@dataclass
class PhaseSchedule:
    """Closed-form cycle budget of one job."""

    feature_load: int
    accumulate: int
    threshold: int
    gaps: int
    overhead: int

    @property
    def total(self) -> int:
        return (self.feature_load + self.accumulate + self.threshold
                + self.gaps + self.overhead)


def phase_schedule(geom: JobGeometry, valid_out, cfg: EngineConfig
                   ) -> PhaseSchedule:
    """Cycle budget: per block (STREAM_SETUP+1) load + 2 gaps + one
    accumulate cycle per valid lane; per tile a threshold phase of
    STREAM_SETUP + 8 + 1 + 1 plus 2 gaps; one overhead per job."""
    valid_out = np.asarray(valid_out)
    pixels = geom.h_out * geom.w_out
    blocks_per_tile = geom.fs * geom.fs * geom.kin_tiles
    n_tiles = pixels * geom.kout_tiles
    n_blocks = n_tiles * blocks_per_tile
    thr_fetch = (geom.tp * 8 + 32 * cfg.ports - 1) // (32 * cfg.ports)
    accumulate = int(pixels * blocks_per_tile * valid_out.sum())
    return PhaseSchedule(
        feature_load=n_blocks * (STREAM_SETUP + 1),
        accumulate=accumulate,
        threshold=n_tiles * (STREAM_SETUP + thr_fetch + 1 + 1),
        gaps=(2 * n_blocks + 2 * n_tiles) * PHASE_GAP,
        overhead=JOB_OVERHEAD)


@dataclass
class JobResult:
    cycles: int
    ops: int
    outputs_written: int
    schedule: PhaseSchedule


class Engine:
    """Functional block-level model with exact phase accounting."""

    def __init__(self, cfg: EngineConfig, mem: Memory):
        self.cfg = cfg
        self.mem = mem
        self.program = reference_program()
        self._pending: deque[JobDescriptor] = deque()

    @property
    def busy(self) -> bool:
        return len(self._pending) >= 2

    def submit(self, job: JobDescriptor) -> None:
        """Offload into one of the two job register sets."""
        if self.busy:
            raise BusyError("both job register sets are occupied")
        if job.geom.tp != self.cfg.tp:
            raise PlanError(f"job wants tp={job.geom.tp}, "
                            f"engine is tp={self.cfg.tp}")
        self._pending.append(job)

    def run_next(self) -> JobResult | None:
        if not self._pending:
            return None
        return self._execute(self._pending.popleft())

    def _execute(self, job: JobDescriptor) -> JobResult:
        cfg = self.cfg
        g = job.geom
        tp = g.tp
        wpv = tp // 32
        state = UcodeState(self.program, ucode_registers(g))
        n_inner = g.fs * g.fs * g.kin_tiles

        mask_bits = np.bitwise_count(job.masks).sum(axis=(2, 3))

        acc = np.zeros(tp, dtype=np.int64)
        ops = 0
        outputs = 0
        acc_cycles = 0
        step = 0
        ko = 0
        tile_y_off = 0
        while (off := state.step()) is not None:
            w_off, x_off, y_off = off
            s = step % n_inner
            if s == 0:
                ko = (step // n_inner) % g.kout_tiles
                tile_y_off = y_off
                acc[:] = 0
            ki = s % g.kin_tiles

            w_words = self.mem.read_words(job.w_base + w_off // 8, tp * wpv)
            w_block = w_words.reshape(tp, wpv)
            x_vec = self.mem.read_words(job.x_base + x_off // 8, wpv)
            agree = (~(w_block ^ x_vec[None, :])) & job.masks[ko, ki]
            acc += np.bitwise_count(agree).sum(axis=1, dtype=np.int64)
            if cfg.saturate:
                np.minimum(acc, ACC_MAX, out=acc)
            ops += 2 * int(mask_bits[ko, ki])
            acc_cycles += int(job.valid_out[ko])

            if s == n_inner - 1:
                outputs += self._threshold_store(job, ko, acc, tile_y_off)
            step += 1

        sched = phase_schedule(g, job.valid_out, cfg)
        if sched.accumulate != acc_cycles:
            raise PlanError(f"microcode walk took {acc_cycles} accumulate "
                            f"cycles, the phase schedule {sched.accumulate}")
        return JobResult(cycles=sched.total, ops=ops,
                         outputs_written=outputs, schedule=sched)

    def _threshold_store(self, job: JobDescriptor, ko: int,
                         acc: np.ndarray, y_off: int) -> int:
        tp = job.geom.tp
        tau, lam_pos = decode_thresholds(
            self.mem.read(job.thr_base + ko * tp, tp))
        eff = tau << job.shift
        bits = np.where(lam_pos, acc >= eff, acc <= eff).astype(np.uint8)
        v = int(job.valid_out[ko])
        bits[v:] = 0  # invalid remainder lanes emit zero
        nbytes = (v + 7) // 8  # sink drops bytes past the valid lanes
        payload = pack_bits(bits).view(np.uint8)[:nbytes]
        self.mem.write(job.y_base + y_off // 8, payload)
        return v


def run_single_job(cfg: EngineConfig, mem: Memory,
                   job: JobDescriptor) -> JobResult:
    eng = Engine(cfg, mem)
    eng.submit(job)
    return eng.run_next()
