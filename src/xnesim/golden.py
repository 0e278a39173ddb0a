"""Golden model of a binarized conv/dense layer.

A layer computes, per output element,

    y = sign(b + sum_xnor(W, x))      with sign(0) = +1,

and the sign is taken after an affine batch-norm, which folds into a
per-channel integer threshold on the xnor popcount:

    pc    = #agreeing bit positions in the receptive field
    sum   = 2*pc - n_acc
    y=+1  iff  pc >= tau_pc   (when the folded scale is positive)
    y=+1  iff  pc <= tau_pc   (when it is negative)

The hardware stores tau_pc right-shifted and rounded to 7 signed bits;
the same quantized threshold is applied here so engine and golden agree
bit for bit.

Convolutions are stride 1 with no implicit padding: the input is
(nif, h_out+fs-1, w_out+fs-1). Banded (grouped) connectivity restricts
each output channel to a contiguous band of d input channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import LayerSpec as LayerSpec
from .bintensor import BinaryTensor, BinaryWeights
from .bits import unpack_pm1
from .errors import DegenerateBatchNorm, PlanError, ShapeError

TAU_Q_MIN = -64
TAU_Q_MAX = 63
SHIFT_MAX = 15     # widest threshold shift the engine applies


@dataclass
class BatchNormParams:
    """Per-output-channel batch norm y = gamma*(t - mu)/sigma + beta,
    applied to t = bias + xnor-sum before the sign."""

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        arrs = [np.asarray(a, dtype=np.float64) for a in
                (self.gamma, self.beta, self.mu, self.sigma, self.bias)]
        n = arrs[0].shape
        for a in arrs:
            if a.shape != n or a.ndim != 1:
                raise ShapeError("batch-norm parameter arrays must share "
                                 "one (nof,) shape")
        if np.any(arrs[3] <= 0):
            raise ShapeError("sigma must be positive")
        self.gamma, self.beta, self.mu, self.sigma, self.bias = arrs

    @property
    def nof(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class ThresholdSpec:
    """What the engine actually loads: a 7-bit signed threshold per
    channel, a shared right-shift, and the comparison direction."""

    tau_q: np.ndarray          # int32, each in [-64, 63]
    lambda_positive: np.ndarray  # bool per channel
    shift: int

    def __post_init__(self):
        tq = np.asarray(self.tau_q, dtype=np.int32)
        lp = np.asarray(self.lambda_positive, dtype=bool)
        if tq.shape != lp.shape or tq.ndim != 1:
            raise ShapeError("tau_q and lambda_positive must share one shape")
        if np.any(tq < TAU_Q_MIN) or np.any(tq > TAU_Q_MAX):
            raise ShapeError(f"tau_q outside [{TAU_Q_MIN}, {TAU_Q_MAX}]")
        if not (0 <= int(self.shift) <= SHIFT_MAX):
            raise ShapeError(f"shift outside [0, {SHIFT_MAX}]")
        object.__setattr__(self, "tau_q", tq)
        object.__setattr__(self, "lambda_positive", lp)
        object.__setattr__(self, "shift", int(self.shift))

    @property
    def nof(self) -> int:
        return len(self.tau_q)

    def effective_tau(self) -> np.ndarray:
        """tau_q scaled back to the popcount domain."""
        return self.tau_q.astype(np.int64) << self.shift


def popcount_thresholds(bn: BatchNormParams,
                        n_acc: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold batch norm into exact popcount thresholds.

    Returns (tau_pc, lambda_positive). With lam = gamma/sigma the sign
    test lam*(sum) + kappa >= 0 becomes pc >= ceil((tau + n_acc)/2) for
    lam > 0 and pc <= floor(...) for lam < 0, where tau = -kappa/lam.
    """
    lam = bn.gamma / bn.sigma
    if np.any(lam == 0):
        raise DegenerateBatchNorm("gamma/sigma is zero for some channel; "
                                  "the activation sign is undefined")
    kappa = bn.beta + lam * (bn.bias - bn.mu)
    tau = -kappa / lam
    lam_pos = lam > 0
    half = (tau + n_acc) / 2.0
    tau_pc = np.where(lam_pos, np.ceil(half), np.floor(half)).astype(np.int64)
    return tau_pc, lam_pos


def round_half_up_shift(val: int, shift: int) -> int:
    """floor(val/2**shift + 1/2), exact in integers."""
    if shift == 0:
        return int(val)
    return (int(val) + (1 << (shift - 1))) >> shift


# |tau_pc| past this rounds outside 7 bits at every shift: clipping to it
# changes no quantized value and keeps the int64 sums from wrapping
_TAU_PC_CLIP = (TAU_Q_MAX + 1) << (SHIFT_MAX + 1)


def _round_shift(tau_pc: np.ndarray, shift) -> np.ndarray:
    """round_half_up_shift of every tau_pc; shift may be an array that
    broadcasts against tau_pc."""
    t = np.clip(np.asarray(tau_pc, dtype=np.int64), -_TAU_PC_CLIP, _TAU_PC_CLIP)
    return (t + ((1 << shift) >> 1)) >> shift


def quantize_thresholds(tau_pc: np.ndarray, lambda_positive: np.ndarray,
                        shift: int) -> ThresholdSpec:
    if not 0 <= shift <= SHIFT_MAX:     # before shifting int64 by it
        raise ShapeError(f"shift outside [0, {SHIFT_MAX}]")
    q = np.clip(_round_shift(tau_pc, shift), TAU_Q_MIN, TAU_Q_MAX)
    return ThresholdSpec(q.astype(np.int32),
                         np.asarray(lambda_positive, dtype=bool), shift)


def choose_shift(tau_pc: np.ndarray) -> int:
    """Smallest shift whose rounded thresholds all fit in 7 signed bits."""
    q = _round_shift(tau_pc, np.arange(SHIFT_MAX + 1, dtype=np.int64)[:, None])
    ok = np.all((q >= TAU_Q_MIN) & (q <= TAU_Q_MAX), axis=1)
    if not ok.any():
        raise PlanError("thresholds do not fit 7 bits at any supported shift")
    return int(np.argmax(ok))


def derive_thresholds(bn: BatchNormParams, spec: LayerSpec) -> ThresholdSpec:
    if bn.nof != spec.nof:
        raise ShapeError(f"batch norm has {bn.nof} channels, layer {spec.nof}")
    tau_pc, lam_pos = popcount_thresholds(bn, spec.n_acc)
    return quantize_thresholds(tau_pc, lam_pos, choose_shift(tau_pc))


def check_layer_inputs(x: BinaryTensor, w: BinaryWeights, spec: LayerSpec):
    """ShapeError unless x and w have the shapes the layer needs."""
    if x.c != spec.nif or x.h != spec.h_in or x.w != spec.w_in:
        raise ShapeError(f"input is {(x.c, x.h, x.w)}, layer needs "
                         f"{(spec.nif, spec.h_in, spec.w_in)}")
    if w.nof != spec.nof or w.nif != spec.d_eff or w.fs != spec.fs:
        raise ShapeError(f"weights are {(w.nof, w.nif, w.fs)}, layer needs "
                         f"{(spec.nof, spec.d_eff, spec.fs)}")


def conv_popcounts(x: BinaryTensor, w: BinaryWeights,
                   spec: LayerSpec) -> np.ndarray:
    """Agreement counts pc[k, i, j] over each receptive field.

    Weights hold only the d_eff channels of each output's band. The
    +/-1 sums are one matrix product per tap, batched over the bands.
    Every partial sum is an integer of magnitude at most n_acc, and
    float32 is exact below 2**24: a field of n_acc >= 2**24 raises
    ShapeError before anything is unpacked. No layer the engine runs
    comes near it: one job's weight stream takes n_acc * tp / 8 bytes
    or more, and the streams fit the sram region.
    """
    if spec.n_acc >= 2**24:
        raise ShapeError(f"receptive field of {spec.n_acc} bits: golden "
                         f"sums in float32, exact only below 2**24")
    check_layer_inputs(x, w, spec)
    g, d, fs = spec.groups, spec.d_eff, spec.fs
    h, wo = spec.h_out, spec.w_out
    xs = (x.to_bits().reshape(g, d, spec.h_in, spec.w_in)
          .astype(np.float32) * 2 - 1)
    # each tap's (g, nof/g, d) weight block is made +/-1 inside the
    # loop, by one table lookup of its packed bytes
    s = np.zeros((g, spec.nof // g, h * wo), dtype=np.float32)
    for fi in range(fs):
        for fj in range(fs):
            win = xs[:, :, fi:fi + h, fj:fj + wo].reshape(g, d, h * wo)
            wt = unpack_pm1(w.words[:, fi, fj], d)
            s += wt.reshape(g, spec.nof // g, d) @ win
    return (s.reshape(spec.nof, h, wo).astype(np.int64) + spec.n_acc) // 2


def apply_thresholds(pc: np.ndarray, thr: ThresholdSpec) -> BinaryTensor:
    """Binarize popcounts with the quantized thresholds (inclusive)."""
    if pc.shape[0] != thr.nof:
        raise ShapeError(f"{pc.shape[0]} popcount channels, "
                         f"{thr.nof} thresholds")
    eff = thr.effective_tau()[:, None, None]
    lp = thr.lambda_positive[:, None, None]
    bits = np.where(lp, pc >= eff, pc <= eff)
    return BinaryTensor.from_bits(bits.astype(np.uint8))


def layer_golden(x: BinaryTensor, w: BinaryWeights, spec: LayerSpec,
                 thr: ThresholdSpec) -> BinaryTensor:
    """Reference output the engine must match exactly."""
    return apply_thresholds(conv_popcounts(x, w, spec), thr)


def real_reference(x: BinaryTensor, w: BinaryWeights, spec: LayerSpec,
                   bn: BatchNormParams) -> BinaryTensor:
    """Binarize against the unquantized fold of the batch norm.

    Matches layer_golden whenever tau_q << shift reproduces tau_pc
    exactly; otherwise elements may flip only where pc falls between
    the exact and truncated thresholds.
    """
    pc = conv_popcounts(x, w, spec)
    tau_pc, lam_pos = popcount_thresholds(bn, spec.n_acc)
    eff = tau_pc[:, None, None]
    lp = lam_pos[:, None, None]
    bits = np.where(lp, pc >= eff, pc <= eff)
    return BinaryTensor.from_bits(bits.astype(np.uint8))


def or_maxpool(x: BinaryTensor, k: int = 2) -> BinaryTensor:
    """Max pooling of +/-1 values: OR over k x k windows, stride k."""
    if x.h % k or x.w % k:
        raise ShapeError(f"{(x.h, x.w)} not divisible by pool size {k}")
    bits = x.to_bits()
    c, h, w = bits.shape
    blk = bits.reshape(c, h // k, k, w // k, k)
    pooled = blk.max(axis=(2, 4))
    return BinaryTensor.from_bits(pooled)


def majority_avgpool(x: BinaryTensor, k: int = 2) -> BinaryTensor:
    """Average pooling then sign: +1 iff at least half the window is +1
    (sign(0) = +1 breaks the tie upward)."""
    if x.h % k or x.w % k:
        raise ShapeError(f"{(x.h, x.w)} not divisible by pool size {k}")
    bits = x.to_bits().astype(np.int32)
    c, h, w = bits.shape
    blk = bits.reshape(c, h // k, k, w // k, k)
    ones = blk.sum(axis=(2, 4))
    pooled = (2 * ones >= k * k).astype(np.uint8)
    return BinaryTensor.from_bits(pooled)


def random_batchnorm(rng: np.random.Generator, nof: int,
                     n_acc: int) -> BatchNormParams:
    """Parameters whose folded thresholds usually land inside the
    reachable popcount range, so outputs are not constant."""
    gamma = rng.uniform(0.5, 2.0, nof) * rng.choice([-1.0, 1.0], nof)
    sigma = rng.uniform(0.5, 2.0, nof)
    beta = rng.uniform(-3.0, 3.0, nof)
    mu = rng.uniform(-n_acc / 4, n_acc / 4, nof)
    bias = np.floor(rng.uniform(-n_acc / 8, n_acc / 8, nof))
    return BatchNormParams(gamma, beta, mu, sigma, bias)


def random_layer_data(rng: np.random.Generator, spec: LayerSpec
                      ) -> tuple[BinaryTensor, BinaryWeights]:
    """Input, then weights, of random bits in C order: bit i of n is the
    top bit of byte i of ceil(n/4) uint32 draws, low byte first. numpy
    draws rng.integers(0, 2, n, dtype=np.uint8) so: the same bits, and
    the same generator state after."""
    def bits(*shape):
        n = math.prod(shape)
        b = rng.integers(0, 2**32, (n + 3) // 4, dtype=np.uint32).astype(
            "<u4", copy=False).view(np.uint8)[:n]
        b >>= 7
        return b.reshape(shape)
    return (BinaryTensor.from_bits(bits(spec.nif, spec.h_in, spec.w_in)),
            BinaryWeights.from_bits(bits(spec.nof, spec.d_eff, spec.fs,
                                         spec.fs)))
