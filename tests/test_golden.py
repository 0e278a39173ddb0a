from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from xnesim import golden
from xnesim.analytic import LayerSpec
from xnesim.bintensor import BinaryTensor, BinaryWeights
from xnesim.errors import DegenerateBatchNorm, PlanError, ShapeError
from xnesim.golden import (BatchNormParams, ThresholdSpec, choose_shift,
                           conv_popcounts, derive_thresholds, layer_golden,
                           majority_avgpool, or_maxpool, popcount_thresholds,
                           quantize_thresholds, real_reference,
                           round_half_up_shift)
from xnesim.runner import random_threshold_spec


def naive_popcounts(x: BinaryTensor, w: BinaryWeights, spec: LayerSpec):
    """Independent oracle: count agreeing bits element by element."""
    xb = x.to_bits()
    wb = w.to_bits()
    out = np.zeros((spec.nof, spec.h_out, spec.w_out), dtype=np.int64)
    for k in range(spec.nof):
        base = k // (spec.nof // spec.groups) * spec.d_eff
        for i in range(spec.h_out):
            for j in range(spec.w_out):
                pc = 0
                for ci in range(spec.d_eff):
                    for fi in range(spec.fs):
                        for fj in range(spec.fs):
                            pc += int(xb[base + ci, i + fi, j + fj]
                                      == wb[k, ci, fi, fj])
                out[k, i, j] = pc
    return out


CASES = [
    LayerSpec(nif=7, nof=3, fs=3, h_out=2, w_out=3),
    LayerSpec(nif=33, nof=2, fs=1, h_out=2, w_out=2),
    LayerSpec(nif=12, nof=4, fs=3, h_out=2, w_out=2, d=3),   # one band per output
    LayerSpec(nif=8, nof=4, fs=1, h_out=3, w_out=1, d=4),    # two outputs per band
    LayerSpec(nif=40, nof=1, fs=5, h_out=1, w_out=2),
    LayerSpec(nif=6, nof=6, fs=1, h_out=1, w_out=1, d=1),
]


@pytest.mark.parametrize("spec", CASES)
def test_conv_popcounts_match_naive(spec):
    rng = np.random.default_rng(hash((spec.nif, spec.nof, spec.fs)) % 2**31)
    x, w = golden.random_layer_data(rng, spec)
    assert np.array_equal(conv_popcounts(x, w, spec), naive_popcounts(x, w, spec))


def test_random_layer_data_equals_byte_per_bit_draw():
    # the draw takes the top bit of each byte of ceil(n/4) uint32 words,
    # which is how numpy draws integers(0, 2, dtype=uint8): the same
    # bits, the same generator state after, so a following threshold
    # draw and the digests in perfbench/reference.json do not move
    shapes = np.random.default_rng(20261019)
    seen = set()     # (draw, bit count mod 4)
    for seed in range(200):
        nif, nof, h, w = (int(v) for v in shapes.integers(1, 40, size=4))
        fs = int(shapes.choice([1, 3, 5]))
        spec = LayerSpec(nif=nif, nof=nof, fs=fs, h_out=h, w_out=w)
        seen |= {("x", nif * spec.h_in * spec.w_in % 4),
                 ("w", nof * nif * fs * fs % 4)}
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        x, wt = golden.random_layer_data(fast, spec)
        xb = slow.integers(0, 2, (spec.nif, spec.h_in, spec.w_in),
                           dtype=np.uint8)
        wb = slow.integers(0, 2, (spec.nof, spec.d_eff, fs, fs),
                           dtype=np.uint8)
        assert np.array_equal(x.to_bits(), xb), (seed, spec)
        assert np.array_equal(wt.to_bits(), wb), (seed, spec)
        assert fast.bit_generator.state == slow.bit_generator.state, seed
        a, b = (random_threshold_spec(r, spec) for r in (fast, slow))
        assert np.array_equal(a.tau_q, b.tau_q), seed
        assert np.array_equal(a.lambda_positive, b.lambda_positive), seed
        assert a.shift == b.shift, seed
    assert len(seen) == 8       # both draws met every residue


def int_popcounts(x: BinaryTensor, w: BinaryWeights, spec: LayerSpec):
    """Independent oracle: +/-1 int64 sums over sliding windows."""
    g, d, fs = spec.groups, spec.d_eff, spec.fs
    xs = 2 * x.to_bits().astype(np.int64) - 1
    ws = 2 * w.to_bits().astype(np.int64) - 1
    win = sliding_window_view(xs, (fs, fs), axis=(1, 2))
    s = np.einsum("gkcab,gcijab->gkij",
                  ws.reshape(g, spec.nof // g, d, fs, fs),
                  win.reshape(g, d, spec.h_out, spec.w_out, fs, fs))
    return (s.reshape(spec.nof, spec.h_out, spec.w_out) + spec.n_acc) // 2


INT_CASES = {
    "dense": LayerSpec(nif=300, nof=70, fs=3, h_out=6, w_out=5),
    "dense-odd": LayerSpec(nif=301, nof=8, fs=3, h_out=2, w_out=2),
    "folded-band": LayerSpec(nif=96, nof=96, fs=3, h_out=4, w_out=4, d=1),
    "npg>1": LayerSpec(nif=64, nof=128, fs=1, h_out=5, w_out=3, d=8),
    "fs5": LayerSpec(nif=130, nof=40, fs=5, h_out=3, w_out=4),
    "fs5-banded": LayerSpec(nif=48, nof=24, fs=5, h_out=2, w_out=2, d=4),
}


@pytest.mark.parametrize("name", INT_CASES)
def test_conv_popcounts_match_int_reference(name):
    # uniform bits keep the +/-1 sums near 0; bits that are 1 with
    # probability 0.98 push them towards n_acc, where an inexact float
    # type would round
    spec = INT_CASES[name]
    rng = np.random.default_rng(list(INT_CASES).index(name))
    for p_one in (0.5, 0.98):
        x = BinaryTensor.from_bits(
            rng.random((spec.nif, spec.h_in, spec.w_in)) < p_one)
        w = BinaryWeights.from_bits(
            rng.random((spec.nof, spec.d_eff, spec.fs, spec.fs)) < p_one)
        pc = conv_popcounts(x, w, spec)
        assert pc.dtype == np.int64
        assert np.array_equal(pc, int_popcounts(x, w, spec)), p_one


def test_popcount_range():
    spec = LayerSpec(nif=5, nof=2, fs=3, h_out=2, w_out=2)
    rng = np.random.default_rng(0)
    x, w = golden.random_layer_data(rng, spec)
    pc = conv_popcounts(x, w, spec)
    assert pc.min() >= 0 and pc.max() <= spec.n_acc
    # all-agree and all-disagree extremes
    ones = BinaryTensor.from_bits(np.ones((5, 4, 4), dtype=np.uint8))
    wone = BinaryWeights.from_bits(np.ones((2, 5, 3, 3), dtype=np.uint8))
    assert np.all(conv_popcounts(ones, wone, spec) == spec.n_acc)
    wzero = BinaryWeights.from_bits(np.zeros((2, 5, 3, 3), dtype=np.uint8))
    assert np.all(conv_popcounts(ones, wzero, spec) == 0)


def test_conv_popcounts_refuses_fields_float32_cannot_sum(monkeypatch):
    # zero tensors of 2**24 channels at 1x1 (2 MB each, packed) are
    # refused before a bit is unpacked; one channel fewer is unpacked
    def unpacked(self):
        raise AssertionError("unpacked")

    def popcounts(nif):
        spec = LayerSpec(nif=nif, nof=1, fs=1, h_out=1, w_out=1)
        return conv_popcounts(BinaryTensor(nif, 1, 1),
                              BinaryWeights(1, nif, 1), spec)

    monkeypatch.setattr(BinaryTensor, "to_bits", unpacked)
    with pytest.raises(ShapeError, match=r"below 2\*\*24$"):
        popcounts(2**24)
    with pytest.raises(AssertionError, match="unpacked"):
        popcounts(2**24 - 1)


@given(st.integers(1, 2000), st.data())
@settings(max_examples=120)
def test_threshold_fold_matches_real_sign(n_acc, data):
    """Oracle for the batch-norm fold: for every reachable popcount,
    the popcount-domain comparison must reproduce the real-valued sign
    (with sign(0) = +1) of gamma*(t - mu)/sigma + beta."""
    f = st.floats(-50, 50, allow_nan=False)
    gamma = data.draw(f.filter(lambda v: abs(v) > 1e-3))
    sigma = data.draw(st.floats(1e-2, 50))
    beta = data.draw(f)
    mu = data.draw(st.floats(-2 * n_acc, 2 * n_acc))
    bias = data.draw(st.integers(-n_acc, n_acc))
    bn = BatchNormParams([gamma], [beta], [mu], [sigma], [float(bias)])
    tau_pc, lam_pos = popcount_thresholds(bn, n_acc)
    lam = gamma / sigma
    pcs = np.concatenate([np.arange(0, min(n_acc, 64) + 1),
                          np.arange(max(0, n_acc - 64), n_acc + 1)])
    for pc in pcs:
        t = bias + (2 * int(pc) - n_acc)
        real = gamma * (t - mu) / sigma + beta
        if abs(real) < 1e-7 * max(1.0, abs(lam) * n_acc):
            continue  # knife-edge: float rounding of tau may pick either side
        want = real >= 0
        got = (pc >= tau_pc[0]) if lam_pos[0] else (pc <= tau_pc[0])
        assert got == want, (pc, tau_pc[0], lam_pos[0], real)


def test_degenerate_batchnorm_rejected():
    bn = BatchNormParams([0.0, 1.0], [0, 0], [0, 0], [1, 1], [0, 0])
    with pytest.raises(DegenerateBatchNorm):
        popcount_thresholds(bn, 9)


def test_sigma_must_be_positive():
    with pytest.raises(ShapeError):
        BatchNormParams([1.0], [0.0], [0.0], [0.0], [0.0])


@given(st.integers(-10**6, 10**6), st.integers(0, 12))
def test_round_half_up_matches_fraction(v, s):
    import math
    want = math.floor(Fraction(v, 2**s) + Fraction(1, 2))
    assert round_half_up_shift(v, s) == want


def test_round_half_up_examples():
    assert round_half_up_shift(5, 1) == 3      # 2.5 -> 3
    assert round_half_up_shift(-5, 1) == -2    # -2.5 -> -2
    assert round_half_up_shift(7, 2) == 2      # 1.75 -> 2
    assert round_half_up_shift(6, 2) == 2      # 1.5 -> 2
    assert round_half_up_shift(-6, 2) == -1    # -1.5 -> -1


def test_quantize_clamps_to_7_bits():
    thr = quantize_thresholds(np.array([10000, -10000, 5]),
                              np.array([True, False, True]), 2)
    assert thr.tau_q.tolist() == [63, -64, 1]
    assert thr.effective_tau().tolist() == [252, -256, 4]
    for shift in (-1, golden.SHIFT_MAX + 1, 64):
        with pytest.raises(ShapeError, match="shift outside"):
            quantize_thresholds(np.array([1]), np.array([True]), shift)


def test_choose_shift_minimal():
    assert choose_shift(np.array([63, -64])) == 0
    assert choose_shift(np.array([64])) == 1
    # 127 at shift 1 rounds half-up to 64, still out of range
    assert round_half_up_shift(127, 1) == 64
    assert choose_shift(np.array([127])) == 2
    assert choose_shift(np.array([126])) == 1   # 63, in range
    assert choose_shift(np.array([1150])) == 5  # 36


I64 = np.iinfo(np.int64)


@given(st.lists(st.one_of(st.integers(-200, 200),
                          st.integers(-2**23, 2**23),
                          st.integers(I64.min, I64.max),
                          st.sampled_from([I64.min, I64.max])),
                min_size=1, max_size=12))
def test_vector_shift_matches_scalar(vals):
    # quantize_thresholds/choose_shift round whole arrays at once; the
    # scalar round_half_up_shift on Python ints is the reference
    tau_pc = np.array(vals, dtype=np.int64)
    lam = np.ones(len(vals), dtype=bool)
    fits = []
    for s in range(golden.SHIFT_MAX + 1):
        q = [round_half_up_shift(v, s) for v in vals]
        want = [min(max(v, golden.TAU_Q_MIN), golden.TAU_Q_MAX) for v in q]
        assert quantize_thresholds(tau_pc, lam, s).tau_q.tolist() == want
        fits.append(all(golden.TAU_Q_MIN <= v <= golden.TAU_Q_MAX for v in q))
    if any(fits):
        assert choose_shift(tau_pc) == fits.index(True)
    else:
        with pytest.raises(PlanError):
            choose_shift(tau_pc)


def test_threshold_spec_validation():
    with pytest.raises(ShapeError):
        ThresholdSpec(np.array([70]), np.array([True]), 0)
    with pytest.raises(ShapeError):
        ThresholdSpec(np.array([1, 2]), np.array([True]), 0)


@pytest.mark.parametrize("spec", CASES)
def test_layer_golden_against_naive_threshold(spec):
    rng = np.random.default_rng(spec.nif * 31 + spec.nof)
    x, w = golden.random_layer_data(rng, spec)
    bn = golden.random_batchnorm(rng, spec.nof, spec.n_acc)
    thr = derive_thresholds(bn, spec)
    out = layer_golden(x, w, spec, thr).to_bits()
    pc = naive_popcounts(x, w, spec)
    eff = thr.effective_tau()
    for k in range(spec.nof):
        for i in range(spec.h_out):
            for j in range(spec.w_out):
                if thr.lambda_positive[k]:
                    want = pc[k, i, j] >= eff[k]
                else:
                    want = pc[k, i, j] <= eff[k]
                assert out[k, i, j] == int(want)


def test_real_reference_equals_golden_when_shift_exact():
    # lambda = 1, kappa = -tau makes tau_pc land exactly on tau_q << shift
    spec = LayerSpec(nif=16, nof=8, fs=3, h_out=3, w_out=3)
    rng = np.random.default_rng(5)
    x, w = golden.random_layer_data(rng, spec)
    shift = 2
    tau_q = rng.integers(-20, 20, spec.nof)
    tau = (tau_q << shift) * 2 - spec.n_acc  # popcount tau back to sum domain
    bn = BatchNormParams(np.ones(spec.nof), -tau.astype(float),
                         np.zeros(spec.nof), np.ones(spec.nof),
                         np.zeros(spec.nof))
    tau_pc, lam_pos = popcount_thresholds(bn, spec.n_acc)
    assert np.array_equal(tau_pc, tau_q << shift)
    thr = quantize_thresholds(tau_pc, lam_pos, shift)
    assert np.array_equal(thr.effective_tau(), tau_pc)
    a = layer_golden(x, w, spec, thr).to_bits()
    b = real_reference(x, w, spec, bn).to_bits()
    assert np.array_equal(a, b)


def test_or_maxpool_matches_pm1_max():
    rng = np.random.default_rng(9)
    t = BinaryTensor.from_bits(rng.integers(0, 2, (3, 4, 6), dtype=np.uint8))
    pooled = or_maxpool(t, 2).to_bits()
    ref = t.to_bits()
    for c in range(3):
        for i in range(2):
            for j in range(3):
                assert pooled[c, i, j] == ref[c, 2*i:2*i+2, 2*j:2*j+2].max()


def test_majority_avgpool_ties_go_positive():
    bits = np.zeros((1, 2, 2), dtype=np.uint8)
    bits[0, 0, 0] = 1
    bits[0, 1, 1] = 1  # two of four positive -> mean 0 -> +1
    t = BinaryTensor.from_bits(bits)
    assert majority_avgpool(t, 2).to_bits()[0, 0, 0] == 1
    bits[0, 1, 1] = 0  # one of four -> -1, bit 0
    assert majority_avgpool(BinaryTensor.from_bits(bits), 2).to_bits()[0, 0, 0] == 0


def test_layer_spec_properties_and_validation():
    s = LayerSpec(nif=128, nof=128, fs=3, h_out=16, w_out=16)
    assert s.n_acc == 1152
    assert s.macs == 128 * 256 * 1152
    assert s.ops == 75_497_472
    assert (s.h_in, s.w_in) == (18, 18)
    g = LayerSpec(nif=12, nof=4, fs=1, h_out=1, w_out=1, d=3)
    assert g.groups == 4 and g.d_eff == 3 and g.n_acc == 3
    with pytest.raises(ShapeError):
        LayerSpec(nif=10, nof=4, fs=1, h_out=1, w_out=1, d=3)  # 3 !| 10
    with pytest.raises(ShapeError):
        LayerSpec(nif=12, nof=5, fs=1, h_out=1, w_out=1, d=3)  # 4 bands !| 5


@pytest.mark.parametrize("d", ["2", 2.0], ids=["str", "float"])
def test_layer_spec_band_width_is_an_integer(d):
    # a str ended in a TypeError, and 2.0 made groups the float 2.0
    with pytest.raises(ShapeError, match="^d must be a positive integer"):
        LayerSpec(nif=4, nof=2, fs=1, h_out=1, w_out=1, d=d)
