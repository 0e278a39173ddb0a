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

The model evaluates each job as a whole rather than cycle by cycle: it
builds the job's whole offset stream (microcode.walk_offsets), reads
every distinct feature vector once, and every weight block and
threshold row once per job, while charging the memory for every access
the pipeline makes (a weight block or threshold row once per pixel).
It accumulates with one float32 matrix product per (output tile, inner
step) over all pixels, clamps once (popcounts are >= 0, so that equals
saturating after every step), then thresholds and stores every tile.
Accumulators are lane-major, (output tile, lane, pixel), so each
product is (lanes, bits) @ (bits, pixels) and its weight block converts
to float32 contiguously. Every output bit is one sign-folded compare,
s*acc >= s*(tau << shift) with s = -1 where the comparison is acc <=
tau, and an invalid lane compares against +inf; one transpose then puts
the bits in store order.
Each product covers only the live box of its mask tile: the lanes from
the first to the last that has a mask bit, and the bits from the first
to the last that any lane has. The box is taken from the masks, so it
is exact for any descriptor: outside it the mask is zero, and a masked
bit adds nothing to a popcount. A tile with no mask bit is skipped.
Every accumulator value and every scaled threshold is an integer of
magnitude at most 2**21, and float32 holds integers exactly below
2**24, so the float32 path is exact end to end. The weights are read
once per job because the walk reads one weight block per (output
tile, inner step) at every pixel; a walk that does not raises
PlanError.
Phase cycles are the closed-form phase_schedule (defined, with its
constants and VALID_TPS, in xnesim.analytic), checked against the
accumulate cycles of the walk.

A threshold byte holds the 7-bit two's-complement quantized threshold
in bits 6..0 and the comparison direction in bit 7 (set = negative
batch-norm scale, compare acc <= tau). The job's shift scales tau back
to the popcount domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (VALID_TPS as VALID_TPS, PhaseSchedule, check_tp,
                       phase_schedule as phase_schedule)
from .bits import pack_bits, unpack_bits
from .errors import PlanError, ShapeError
from .golden import SHIFT_MAX, ThresholdSpec
from .memory import Memory
from .microcode import (JobGeometry, reference_program, ucode_registers,
                        walk_offsets)

ACC_MAX = 0xFFFF
_PROGRAM = reference_program()    # built once, frozen; every engine walks it


@dataclass(frozen=True)
class EngineConfig:
    tp: int = 128
    saturate: bool = True

    def __post_init__(self):
        check_tp(self.tp)


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
        self.program = _PROGRAM

    def run_next(self, job: JobDescriptor) -> JobResult:
        """Offload *job* and run it to completion."""
        if job.geom.tp != self.cfg.tp:
            raise PlanError(f"job wants tp={job.geom.tp}, "
                            f"engine is tp={self.cfg.tp}")
        g = job.geom
        tp = g.tp
        mem = self.mem
        offs = walk_offsets(self.program, ucode_registers(g))
        # step = (pixel * kout_tiles + ko) * n_inner + s: each tile (one
        # output vector) accumulates n_inner blocks, s = (fi, fj, ki)
        n_inner = g.fs * g.fs * g.kin_tiles
        ko = np.arange(len(offs)) // n_inner % g.kout_tiles
        sched = phase_schedule(g.fs, g.h_out * g.w_out, g.kin_tiles,
                               g.kout_tiles, int(job.valid_out.sum()))
        acc_cycles = int(job.valid_out[ko].sum())
        if sched.accumulate != acc_cycles:
            raise PlanError(f"microcode walk took {acc_cycles} accumulate "
                            f"cycles, the phase schedule {sched.accumulate}")
        # the walk rewinds the weights at every pixel, so each (ko, s)
        # reads one weight block at all pixels; the products rely on it
        w_off = offs[:, 0].reshape(-1, g.kout_tiles, n_inner)
        moved = np.any(w_off != w_off[0], axis=(1, 2))
        if moved.any():
            raise PlanError(f"microcode walk reads other weight blocks at "
                            f"pixel {moved.argmax()} than at pixel 0")

        # one fetch per distinct feature vector, and of pixel 0's weight
        # blocks, which are every pixel's; every access is still
        # checked, and charged once per step that makes it
        pixels = len(w_off)
        w_rows, w_of = mem.gather_words(job.w_base + w_off[0].ravel() // 8,
                                        tp * tp // 32, pixels)
        x_rows, x_of = mem.gather_words(job.x_base + offs[:, 1] // 8,
                                        tp // 32)
        x = unpack_bits(x_rows, tp).astype(np.float32)
        # (kout_tiles, n_inner, pixels): per (ko, s), the x row of each
        # pixel, contiguous for the row gather of its product
        x_of = np.ascontiguousarray(
            x_of.reshape(w_off.shape).transpose(1, 2, 0))

        # For lane mask m and weights w, with p = m & ~w and n = m & w
        # (the bits that agree when x is 0, resp. 1):
        # popcount(~(x ^ w) & m) = sum(p) - x.(p - n), so each (ko, s)
        # is one matrix product over all pixels, subtracted from the
        # lane's sum(p) over every s. p and n are 0 wherever m is 0,
        # so each product covers only the live box of its mask tile:
        # the lanes from the first to the last with a mask bit, the
        # bits from the first to the last any lane has. Every value acc
        # holds is an integer in [0, n_inner*tp]. A job's weight
        # blocks, tp lanes of n_inner*tp bits, lie in one region of at
        # most 8 MiB, so n_inner*tp <= 2**21
        # (test_accumulator_bound_from_memory_map) and float32, exact
        # below 2**24, holds every value exactly. acc is lane-major,
        # (kout_tiles, tp, pixels): each product is (lanes, bits) @
        # (bits, pixels), and its weight block converts contiguously.
        m = job.masks[:, np.arange(n_inner) % g.kin_tiles]
        w = w_rows[w_of].reshape(m.shape)
        p, n = m & ~w, m & w
        acc = np.empty((g.kout_tiles, tp, pixels), dtype=np.float32)
        acc[:] = np.bitwise_count(p).sum(axis=(1, 3))[:, :, None]
        boxes = [[_live_box(tile) for tile in tiles] for tiles in job.masks]
        for k, s in np.ndindex(g.kout_tiles, n_inner):
            box = boxes[k][s % g.kin_tiles]
            if box is None:
                continue
            lanes, b0, b1 = box
            signed = (unpack_bits(p[k, s, lanes], b1).view(np.int8)
                      - unpack_bits(n[k, s, lanes], b1).view(np.int8))
            acc[k, lanes] -= (signed[:, b0:].astype(np.float32)
                              @ x[x_of[k, s], b0:b1].T)
        if self.cfg.saturate:
            # popcounts are >= 0: one clamp equals a clamp per step
            np.minimum(acc, ACC_MAX, out=acc)

        outputs = self._threshold_store(job, acc, offs[::n_inner, 2])
        ops = 2 * pixels * int(np.bitwise_count(m).sum())
        return JobResult(cycles=sched.total, ops=ops,
                         outputs_written=outputs, schedule=sched)

    def _threshold_store(self, job: JobDescriptor, acc: np.ndarray,
                         y_off: np.ndarray) -> int:
        """Threshold the lane-major (kout_tiles, tp, pixels)
        accumulators and write every tile's valid lanes' bytes, tiles
        in walk order (tile pixel*kout_tiles + ko, stored at bit offset
        y_off[tile]); returns the number of output bits written.

        Every bit is one sign-folded compare, s*acc >= s*(tau << shift)
        with s = +1 for acc >= tau and -1 for acc <= tau (negating both
        sides of a float32 compare is exact); an invalid lane compares
        against +inf and so emits zero. One transpose then puts the
        bits in store order, (pixel, ko, lane). acc is scaled in
        place."""
        kout_tiles, tp, pixels = acc.shape
        # each output tile's threshold row, charged once per pixel
        thr_rows, thr_of = self.mem.gather(
            job.thr_base + np.arange(kout_tiles) * tp, tp, pixels)
        tau, lam_pos = decode_thresholds(thr_rows[thr_of])
        sign = np.where(lam_pos, 1, -1)
        # |tau << shift| <= 64 << SHIFT_MAX = 2**21: exact in float32,
        # like every accumulator value
        eff = np.where(np.arange(tp) < job.valid_out[:, None],
                       sign * (tau << job.shift), np.inf).astype(np.float32)
        acc *= sign[:, :, None].astype(np.float32)
        bits = acc >= eff[:, :, None]
        v = np.tile(job.valid_out, pixels)      # valid lanes per tile
        # the sink drops bytes past the valid lanes
        self.mem.scatter(job.y_base + y_off // 8,
                         pack_bits(bits.transpose(2, 0, 1).reshape(-1, tp))
                         .view(np.uint8), (v + 7) // 8)
        return int(v.sum())


def _live_box(masks: np.ndarray) -> tuple[slice, int, int] | None:
    """The live box of one (tp, tp//32) mask tile: (lanes, b0, b1), the
    lanes from the first to the last with a mask bit and the bits
    [b0, b1) from the first to the last that any lane has; None when
    the tile has no mask bit."""
    lanes = np.flatnonzero(masks.any(axis=1))
    if not len(lanes):
        return None
    bits = np.flatnonzero(unpack_bits(np.bitwise_or.reduce(masks),
                                      32 * masks.shape[1]))
    return slice(lanes[0], lanes[-1] + 1), int(bits[0]), int(bits[-1]) + 1


def run_single_job(cfg: EngineConfig, mem: Memory,
                   job: JobDescriptor) -> JobResult:
    return Engine(cfg, mem).run_next(job)
