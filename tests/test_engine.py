import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xnesim import engine
from xnesim.analytic import (VALID_TPS, LayerSpec, default_memory_map,
                             layer_cost, phase_schedule)
from xnesim.engine import (ACC_MAX, Engine, EngineConfig, JobDescriptor,
                           decode_thresholds, encode_thresholds,
                           run_single_job)
from xnesim.errors import PlanError, RegionError, ShapeError
from xnesim.golden import (SHIFT_MAX, TAU_Q_MIN, ThresholdSpec, layer_golden,
                           random_layer_data)
from xnesim.memory import Memory
from xnesim.microcode import (JobGeometry, reference_program, ucode_registers,
                              walk_offsets)
from xnesim.runner import (execute_layer, load_job, plan_layer,
                           random_threshold_spec)


# --- threshold byte ----------------------------------------------------

def test_threshold_byte_roundtrip_exhaustive():
    # every (tau_q, direction) pair, one channel each: all 256 bytes
    tau = np.tile(np.arange(-64, 64), 2)
    lp = np.repeat([True, False], 128)
    enc = encode_thresholds(ThresholdSpec(tau, lp, 2))
    assert enc.dtype == np.uint8 and len(set(enc.tolist())) == 256
    got_tau, got_lp = decode_thresholds(enc)
    assert np.array_equal(got_tau, tau) and np.array_equal(got_lp, lp)


def test_threshold_byte_sign_bit():
    # bit 7 flags the flipped comparison, bits 6..0 hold the threshold
    thr = ThresholdSpec(np.array([0, 0, -1, 63, -64]),
                        np.array([1, 0, 1, 1, 1], dtype=bool), 0)
    assert encode_thresholds(thr).tolist() == [0, 0x80, 0x7F, 0x3F, 0x40]


def test_encode_thresholds_vector():
    thr = ThresholdSpec(np.array([0, 5, -3, 63, -64]),
                        np.array([1, 0, 1, 0, 1], dtype=bool), 2)
    enc = encode_thresholds(thr)
    assert enc.dtype == np.uint8 and enc.shape == (5,)
    got_tau, got_lp = decode_thresholds(enc)
    assert np.array_equal(got_tau, thr.tau_q)
    assert np.array_equal(got_lp, thr.lambda_positive)


# --- config -------------------------------------------------------------

def test_engine_config_validation():
    with pytest.raises(ShapeError):
        EngineConfig(tp=100)


# --- cycle schedule -----------------------------------------------------

def test_phase_schedule_small_case_by_hand():
    # 2x3 pixels, fs=1, 2 input tiles, 1 output tile of 5 valid lanes
    spec = LayerSpec(nif=160, nof=5, fs=1, h_out=2, w_out=3)
    plan = plan_layer(spec, 128)
    s = plan.schedules(EngineConfig(tp=128))[0]
    blocks = 6 * 2          # pixels * kin_tiles
    tiles = 6
    assert s.feature_load == blocks * 3      # STREAM_SETUP 2 + 1
    assert s.accumulate == 60                # 6 pixels * 2 tiles * 5 lanes
    assert s.threshold == tiles * (2 + 8 + 1 + 1)
    assert s.gaps == (2 * blocks + 2 * tiles) * 8
    assert s.overhead == 16
    assert s.total == 36 + 60 + 72 + 288 + 16
    # tp threshold bytes over tp/32 ports of 32 bits: 8 fetch cycles
    # at every tp, and one output tile of 5 lanes per pixel at each
    for tp in VALID_TPS:
        [s] = plan_layer(spec, tp).schedules(EngineConfig(tp=tp))
        assert s.threshold == tiles * (2 + 8 + 1 + 1), tp


def test_phase_schedule_matches_engine_run():
    spec = LayerSpec(nif=96, nof=40, fs=3, h_out=4, w_out=4)
    rng = np.random.default_rng(0)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    run = execute_layer(EngineConfig(tp=128), spec, x, w, thr)
    assert run.cycles == run.plan.cycles(EngineConfig(tp=128))


def test_calibration_layer_cycles_frozen():
    spec = LayerSpec(nif=128, nof=128, fs=3, h_out=16, w_out=16)
    plan = plan_layer(spec, 128)
    cyc = plan.cycles(EngineConfig(tp=128))
    # 256 tiles * (9 blocks * (3 + 16 + 128) + 28 thr+gaps) + 16
    assert cyc == 345872
    assert spec.ops == 75497472


# --- engine vs reference ------------------------------------------------

CASES = [
    LayerSpec(nif=1, nof=1, fs=1, h_out=1, w_out=1),
    LayerSpec(nif=40, nof=17, fs=3, h_out=4, w_out=5),
    LayerSpec(nif=130, nof=129, fs=1, h_out=2, w_out=2),
    LayerSpec(nif=256, nof=256, fs=5, h_out=3, w_out=3),
    LayerSpec(nif=64, nof=64, fs=3, h_out=3, w_out=3, d=1),
    LayerSpec(nif=150, nof=75, fs=1, h_out=4, w_out=4, d=2),
    LayerSpec(nif=132, nof=33, fs=3, h_out=2, w_out=2, d=4),
]


@pytest.mark.parametrize("spec", CASES, ids=lambda s: f"{s.nif}x{s.nof}f{s.fs}g{s.groups}")
def test_engine_matches_golden(spec):
    rng = np.random.default_rng(abs(hash((spec.nif, spec.nof, spec.fs))) % 2**32)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    run = execute_layer(EngineConfig(tp=128), spec, x, w, thr)
    want = layer_golden(x, w, spec, thr)
    assert np.array_equal(run.output.to_bits(), want.to_bits())


@pytest.mark.parametrize("tp", [32, 64, 256, 512])
def test_engine_matches_golden_other_tp(tp):
    spec = LayerSpec(nif=70, nof=50, fs=3, h_out=3, w_out=3)
    rng = np.random.default_rng(tp)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    run = execute_layer(EngineConfig(tp=tp), spec, x, w, thr)
    want = layer_golden(x, w, spec, thr)
    assert np.array_equal(run.output.to_bits(), want.to_bits())


def test_ops_exactness():
    # every valid lane contributes its full band, remainder lanes nothing
    for spec in CASES:
        plan = plan_layer(spec, 128)
        total = 0
        for job in plan.jobs:
            per_pass = int(np.bitwise_count(job.masks()).sum())
            total += 2 * spec.fs * spec.fs * spec.h_out * spec.w_out * per_pass
        assert total == spec.ops


def _unpack(a):
    return np.unpackbits(np.asarray(a).view(np.uint8), axis=-1,
                         bitorder="little").astype(bool)


def _oracle_run(mem, job):
    """The job one walk step at a time on unpacked bits: every lane of
    a tile sums popcount(~(x ^ w) & m) over its steps, then the tile
    reads its threshold row and writes its valid lanes' bytes. Returns
    the accumulators, one row per tile in walk order."""
    g, tp = job.geom, job.geom.tp
    offs = walk_offsets(reference_program(), ucode_registers(g))
    n_inner = g.fs * g.fs * g.kin_tiles
    m = _unpack(job.masks)                    # (ko, ki, lane, bit)
    accs = []
    for t, first in enumerate(range(0, len(offs), n_inner)):
        ko = t % g.kout_tiles
        acc = np.zeros(tp, dtype=np.int64)
        for s in range(n_inner):
            w_off, x_off, _ = (int(o) // 8 for o in offs[first + s])
            x = _unpack(mem.read(job.x_base + x_off, tp // 8))
            w = _unpack(mem.read(job.w_base + w_off, tp * tp // 8))
            acc += (~(x ^ w.reshape(tp, tp)) & m[ko, s % g.kin_tiles]).sum(1)
        tau, lam_pos = decode_thresholds(mem.read(job.thr_base + ko * tp, tp))
        eff = tau << job.shift
        bits = np.where(lam_pos, acc >= eff, acc <= eff)
        v = int(job.valid_out[ko])
        mem.write(job.y_base + int(offs[first, 2]) // 8,
                  np.packbits(bits[:v], bitorder="little"))
        accs.append(acc)
    return np.array(accs)


@pytest.mark.parametrize("tp", [32, 128])
def test_masks_with_holes_match_per_lane_oracle(tp):
    # two output and two input tiles; the masks have holes the planner
    # never makes, so any box not taken from the masks themselves
    # drops or adds bits
    spec = LayerSpec(nif=2 * tp - 7, nof=tp + 9, fs=3, h_out=3, w_out=4)
    rng = np.random.default_rng(tp)
    x, w = random_layer_data(rng, spec)
    mem = Memory()
    l1 = mem.base("l1")
    mem.write_words(l1, x.flat_words())
    [plan] = plan_layer(spec, tp).jobs
    job = load_job(mem, plan, w, random_threshold_spec(rng, spec),
                   mem.base("sram"), l1, l1 + layer_cost(spec, tp).y_offset)
    masks = job.masks.copy()
    masks[0, 0] = 0                   # live bits 0 and tp-1 only, in
    masks[0, 0, 3:-2, 0] = 1          # lanes 3 to tp-3; lane 3 has
    masks[0, 0, 4:-2, -1] |= np.uint32(1 << 31)     # bit 0 alone
    masks[0, 1, 5] = 0                # a valid lane with no mask bit
    masks[1, 1] = 0                   # a tile with no mask bit
    job = dataclasses.replace(job, masks=masks)
    assert job.valid_out.tolist() == [tp, 9]
    # thresholds at each channel's median popcount, both directions
    acc = _oracle_run(copy.deepcopy(mem), job).reshape(-1, 2 * tp)
    med = np.median(acc, axis=0).astype(np.int64)
    shift = max(0, int(med.max()).bit_length() - 6)
    thr = ThresholdSpec(med >> shift, np.arange(2 * tp) % 3 > 0, shift)
    mem.write(job.thr_base, encode_thresholds(thr))
    job = dataclasses.replace(job, shift=shift)

    want = copy.deepcopy(mem)
    _oracle_run(want, job)
    res = run_single_job(EngineConfig(tp=tp), mem, job)
    assert mem.traffic == want.traffic
    size = mem.regions["l1"].size
    assert np.array_equal(mem.read(l1, size), want.read(l1, size))
    y = want.read(job.y_base, 4 * 12 * ((tp + 9 + 31) // 32))
    assert 0 < np.bitwise_count(y).sum() < 12 * (tp + 9)
    sched = phase_schedule(3, 12, 2, 2, tp + 9)
    assert res.schedule == sched and res.cycles == sched.total


# the fuzz runs the oracle twice per example: at most this many walk
# steps, and steps * tp * tp unpacked weight bits
FUZZ_STEPS, FUZZ_BITS = 192, 2**23


def _holed_masks(rng, kout, kin, tp):
    """(kout, kin, tp, tp//32) masks the planner never makes: empty
    tiles, sparse and dense tiles, empty lanes and single-bit lanes,
    with bits 0 and tp-1 often among them."""
    m = np.zeros((kout, kin, tp, tp), dtype=bool)
    for ko, ki in np.ndindex(kout, kin):
        density = (0.0, 0.03, 0.5, 1.0)[rng.integers(0, 4)]
        tile = rng.random((tp, tp)) < density
        kind = rng.integers(0, 4, tp)       # 0 empty, 1 one bit, else as is
        tile[kind < 2] = False
        single = np.flatnonzero(kind == 1)
        tile[single, rng.choice([0, tp - 1, rng.integers(tp)],
                                len(single))] = True
        m[ko, ki] = tile
    return np.packbits(m, axis=-1, bitorder="little").view("<u4")


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_hand_built_descriptors_match_per_lane_oracle(data):
    # any TP, filter size, tile counts and pixels within the oracle's
    # budget; a band step, and output pixels that may overlap (the
    # stride one word short of the tiles) or leave gaps
    tp = data.draw(st.sampled_from(VALID_TPS))
    fs = data.draw(st.sampled_from([1, 3, 5]))
    cap = min(FUZZ_STEPS, FUZZ_BITS // tp**2) // (fs * fs)
    kin = data.draw(st.integers(1, min(3, cap)))
    kout = data.draw(st.integers(1, min(3, cap // kin)))
    h = data.draw(st.integers(1, min(3, cap // (kin * kout))))
    w = data.draw(st.integers(1, min(3, cap // (kin * kout * h))))
    band_step = 32 * data.draw(st.integers(0, tp // 32))
    y_pixel = kout * tp + 32 * data.draw(st.integers(-1, 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    geom = JobGeometry(tp, fs, h, w, kin, kout, band_step, kin * tp,
                       (w + fs - 1) * kin * tp, y_pixel, w * y_pixel)
    offs = walk_offsets(reference_program(), ucode_registers(geom))

    mem = Memory()
    l1 = mem.base("l1")
    x_bytes = (int(offs[:, 1].max()) + tp) // 8
    mem.write(l1, rng.integers(0, 256, x_bytes, dtype=np.uint8))
    w_bytes = kout * fs * fs * kin * tp * tp // 8
    fits = w_bytes + kout * tp <= mem.regions["sram"].size
    w_base = mem.base("sram" if fits else "hyperram")
    mem.write(w_base, rng.integers(0, 256, w_bytes, dtype=np.uint8))
    valid_out = rng.choice([1, tp, rng.integers(1, tp + 1)], kout)
    job = JobDescriptor(geom, w_base, l1, l1 + 4 * -(-x_bytes // 4),
                        w_base + w_bytes, 0,
                        _holed_masks(rng, kout, kin, tp), valid_out)
    # thresholds at each lane's median accumulator, both directions;
    # every accumulator is at most n_inner * tp < 2**16, so no clamp
    acc = _oracle_run(copy.deepcopy(mem), job).reshape(-1, kout * tp)
    med = np.median(acc, axis=0).astype(np.int64)
    shift = max(0, int(med.max()).bit_length() - 6)
    mem.write(job.thr_base, encode_thresholds(ThresholdSpec(
        med >> shift, rng.random(kout * tp) < 0.5, shift)))
    job = dataclasses.replace(job, shift=shift)

    want = copy.deepcopy(mem)
    _oracle_run(want, job)
    res = run_single_job(EngineConfig(tp=tp), mem, job)
    y_end = job.y_base + (int(offs[:, 2].max()) + tp) // 8
    assert np.array_equal(mem.read(job.y_base, y_end - job.y_base),
                          want.read(job.y_base, y_end - job.y_base))
    size = mem.regions["l1"].size
    assert np.array_equal(mem.read(l1, size), want.read(l1, size))
    assert mem.traffic == want.traffic
    sched = phase_schedule(fs, h * w, kin, kout, int(valid_out.sum()))
    assert res.schedule == sched and res.cycles == sched.total


# --- job control --------------------------------------------------------

def _tiny_job(mem, spec=LayerSpec(nif=32, nof=8, fs=1, h_out=1, w_out=1)):
    rng = np.random.default_rng(1)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    mem.write_words(mem.base("l1"), x.flat_words())
    return load_job(mem, plan_layer(spec, 128).jobs[0], w, thr,
                    mem.base("sram"), mem.base("l1"), mem.base("l1") + 0x1000)


def test_walk_schedule_disagreement_raises(monkeypatch):
    # the walk-vs-schedule check must hold under python -O too
    def off_by_one(fs, pixels, kin_tiles, kout_tiles, valid_lanes):
        s = phase_schedule(fs, pixels, kin_tiles, kout_tiles, valid_lanes)
        return dataclasses.replace(s, accumulate=s.accumulate + 1)
    mem = Memory()
    job = _tiny_job(mem)
    monkeypatch.setattr(engine, "phase_schedule", off_by_one)
    with pytest.raises(PlanError, match="8 accumulate cycles.* 9"):
        run_single_job(EngineConfig(tp=128), mem, job)


def test_weight_block_moving_between_pixels_raises(monkeypatch):
    # the products take each (ko, s) weight block from pixel 0, so a
    # walk that reads another valid block at a later pixel is refused
    mem = Memory()
    job = _tiny_job(mem, LayerSpec(nif=32, nof=8, fs=3, h_out=2, w_out=2))
    real = engine.walk_offsets

    def moved(prog, ro):
        offs = real(prog, ro).copy()
        offs[9, 0] = offs[10, 0]   # pixel 1, s = 0 reads s = 1's block
        return offs
    monkeypatch.setattr(engine, "walk_offsets", moved)
    before = copy.deepcopy(mem.traffic)
    with pytest.raises(PlanError,
                       match="other weight blocks at pixel 1 than at pixel 0"):
        run_single_job(EngineConfig(tp=128), mem, job)
    assert mem.traffic == before      # rejected before any access


def test_feature_walk_past_l1_raises():
    # 16 pixels of one word each; each tp-bit read spans 4 of them, so
    # the reads of the last 3 pixels run past the end of l1
    spec = LayerSpec(nif=32, nof=8, fs=1, h_out=4, w_out=4)
    rng = np.random.default_rng(4)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    mem = Memory()
    l1_end = mem.base("l1") + mem.regions["l1"].size
    x_base = l1_end - 4 * len(x.flat_words())
    mem.write_words(x_base, x.flat_words())
    desc = load_job(mem, plan_layer(spec, 128).jobs[0], w, thr,
                    mem.base("sram"), x_base, mem.base("l1"))
    with pytest.raises(RegionError, match=f"{l1_end - 12:#x}, \\+16"):
        run_single_job(EngineConfig(tp=128), mem, desc)


def test_tp_mismatch_rejected():
    mem = Memory()
    eng = Engine(EngineConfig(tp=256), mem)
    job = _tiny_job(mem)
    before = copy.deepcopy(mem.traffic)
    with pytest.raises(PlanError):
        eng.run_next(job)
    assert mem.traffic == before      # rejected before any access


def test_descriptor_validation():
    mem = Memory()
    j = _tiny_job(mem)
    with pytest.raises(ShapeError):
        JobDescriptor(geom=j.geom, w_base=j.w_base + 2, x_base=j.x_base,
                      y_base=j.y_base, thr_base=j.thr_base, shift=0,
                      masks=j.masks, valid_out=j.valid_out)
    with pytest.raises(ShapeError):
        JobDescriptor(geom=j.geom, w_base=j.w_base, x_base=j.x_base,
                      y_base=j.y_base, thr_base=j.thr_base, shift=16,
                      masks=j.masks, valid_out=j.valid_out)
    with pytest.raises(ShapeError):
        JobDescriptor(geom=j.geom, w_base=j.w_base, x_base=j.x_base,
                      y_base=j.y_base, thr_base=j.thr_base, shift=0,
                      masks=j.masks[:, :, :, :2], valid_out=j.valid_out)


def test_sink_writes_only_valid_bytes():
    # 10 valid lanes -> 2 bytes per pixel; the rest of the word stays put
    spec = LayerSpec(nif=64, nof=10, fs=1, h_out=2, w_out=2)
    rng = np.random.default_rng(3)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    mem = Memory()
    mem.write_words(mem.base("l1"), x.flat_words())
    y_base = mem.base("l1") + 0x1000
    mem.write(y_base, np.full(16, 0xAA, dtype=np.uint8))
    desc = load_job(mem, plan_layer(spec, 128).jobs[0], w, thr,
                    mem.base("sram"), mem.base("l1"), y_base)
    run_single_job(EngineConfig(tp=128), mem, desc)
    got = mem.read(y_base, 16).reshape(4, 4)
    assert np.all(got[:, 2:] == 0xAA)          # untouched tail bytes
    want = layer_golden(x, w, spec, thr).to_bits()
    bits = np.unpackbits(got[:, :2], bitorder="little", axis=1)[:, :10]
    assert np.array_equal(bits.T.reshape(10, 2, 2), want)


# --- saturation ---------------------------------------------------------

def test_saturation_dual_run_equality():
    # n_acc = 6400 <= 65535: clamping can never engage
    spec = LayerSpec(nif=256, nof=32, fs=5, h_out=2, w_out=2)
    rng = np.random.default_rng(9)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    a = execute_layer(EngineConfig(tp=128, saturate=True), spec, x, w, thr)
    b = execute_layer(EngineConfig(tp=128, saturate=False), spec, x, w, thr)
    assert np.array_equal(a.output.to_bits(), b.output.to_bits())


def test_saturation_clamps_at_16_bits():
    # all-agreeing layer with n_acc = 65550: the true count exceeds the
    # accumulator; a threshold of 65536 separates clamped from exact
    spec = LayerSpec(nif=65550, nof=8, fs=1, h_out=1, w_out=1)
    x = np.ones((spec.nif, 1, 1), dtype=np.uint8)
    w = np.ones((spec.nof, spec.nif, 1, 1), dtype=np.uint8)
    from xnesim.bintensor import BinaryTensor, BinaryWeights
    xt, wt = BinaryTensor.from_bits(x), BinaryWeights.from_bits(w)
    thr = ThresholdSpec(np.full(8, 32), np.ones(8, dtype=bool), 11)

    outs = {}
    for sat in (True, False):
        mem = Memory()
        mem.write_words(mem.base("l1"), xt.flat_words())
        desc = load_job(mem, plan_layer(spec, 128).jobs[0], wt, thr,
                        mem.base("hyperram"),  # too big for sram
                        mem.base("l1"), mem.base("l1") + 0x8000)
        run_single_job(EngineConfig(tp=128, saturate=sat), mem, desc)
        outs[sat] = int(mem.read(mem.base("l1") + 0x8000, 1)[0])
    assert outs[False] == 0xFF   # 65550 >= 65536
    assert outs[True] == 0x00    # clamped 65535 < 65536
    assert spec.n_acc > ACC_MAX


def test_schedule_helper_direct():
    spec = LayerSpec(nif=128, nof=128, fs=3, h_out=2, w_out=2)
    plan = plan_layer(spec, 128)
    j = plan.jobs[0]
    s = phase_schedule(3, 4, j.geom.kin_tiles, j.geom.kout_tiles, 128)
    assert s.total == plan.cycles(EngineConfig(tp=128))


# --- float32 exactness --------------------------------------------------

def test_accumulator_bound_from_memory_map():
    # A lane sums n_inner*tp bits per pixel into a float32 accumulator,
    # exact while every value stays below 2**24. The job's weight
    # stream, tp lanes or more of n_inner*tp bits each, must fit one
    # region (load_job), so the largest region at the smallest tp
    # bounds n_inner*tp.
    regions = {r.name: r.size for r in default_memory_map()}
    bound = 8 * max(regions.values()) // min(VALID_TPS)
    assert bound == 2**21 < 2**24
    # The input image, at least n_acc bits, must fit l1
    # (LayerCost.check_buffers): the receptive field of any layer that
    # execute_layer runs is below 2**24 too.
    assert 8 * regions["l1"] < 2**24
    # the bound is tight to one word: one tile of 32 lanes whose lanes
    # sum bound - 32 bits fits the largest region, bound bits do not
    for nif, fits in ((bound - 32, True), (bound, False)):
        cost = layer_cost(LayerSpec(nif=nif, nof=32, fs=1, h_out=1, w_out=1),
                          32)
        assert 8 * cost.weight_bytes // 32 == nif
        assert (cost.job_bytes <= max(regions.values())) == fits
    # the scaled thresholds the accumulators are compared with
    assert -TAU_Q_MIN << SHIFT_MAX == 2**21

