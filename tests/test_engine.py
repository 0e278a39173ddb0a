import numpy as np
import pytest

from xnesim import engine
from xnesim.engine import (ACC_MAX, Engine, EngineConfig, JobDescriptor,
                           decode_threshold_byte, encode_threshold_byte,
                           encode_thresholds, phase_schedule, run_single_job)
from xnesim.errors import BusyError, PlanError, ShapeError
from xnesim.golden import (LayerSpec, ThresholdSpec, layer_golden,
                           random_layer_data)
from xnesim.memory import Memory
from xnesim.runner import (execute_layer, plan_layer, random_threshold_spec,
                           threshold_stream_bytes, weight_stream_words)


# --- threshold byte ----------------------------------------------------

def test_threshold_byte_roundtrip_exhaustive():
    for tau in range(-64, 64):
        for lp in (True, False):
            b = encode_threshold_byte(tau, lp)
            assert 0 <= b <= 255
            assert decode_threshold_byte(b) == (tau, lp)


def test_threshold_byte_sign_bit():
    # bit 7 flags the flipped comparison, bits 6..0 hold the threshold
    assert encode_threshold_byte(0, True) == 0
    assert encode_threshold_byte(0, False) == 0x80
    assert encode_threshold_byte(-1, True) == 0x7F
    assert encode_threshold_byte(63, True) == 0x3F
    assert encode_threshold_byte(-64, True) == 0x40


def test_encode_thresholds_vector():
    thr = ThresholdSpec(np.array([0, 5, -3, 63, -64]),
                        np.array([1, 0, 1, 0, 1], dtype=bool), 2)
    enc = encode_thresholds(thr)
    for i in range(5):
        assert decode_threshold_byte(int(enc[i])) == (
            int(thr.tau_q[i]), bool(thr.lambda_positive[i]))


# --- config -------------------------------------------------------------

def test_engine_config_validation():
    with pytest.raises(ShapeError):
        EngineConfig(tp=100)
    assert EngineConfig(tp=256).ports == 8


# --- cycle schedule -----------------------------------------------------

def test_phase_schedule_small_case_by_hand():
    # 2x3 pixels, fs=1, 2 input tiles, 1 output tile of 5 valid lanes
    spec = LayerSpec(nif=160, nof=5, fs=1, h_out=2, w_out=3)
    plan = plan_layer(spec, 128)
    s = plan.schedules(EngineConfig(tp=128))[0]
    blocks = 6 * 2          # pixels * kin_tiles
    tiles = 6
    assert s.feature_load == blocks * 3      # stream_setup 2 + 1
    assert s.accumulate == 60                # 6 pixels * 2 tiles * 5 lanes
    assert s.threshold == tiles * (2 + 8 + 1 + 1)
    assert s.gaps == (2 * blocks + 2 * tiles) * 8
    assert s.overhead == 16
    assert s.total == 36 + 60 + 72 + 288 + 16


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


@pytest.mark.parametrize("tp", [32, 64, 256])
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


# --- job control --------------------------------------------------------

def _tiny_job(mem):
    spec = LayerSpec(nif=32, nof=8, fs=1, h_out=1, w_out=1)
    rng = np.random.default_rng(1)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    plan = plan_layer(spec, 128)
    job = plan.jobs[0]
    mem.write_words(mem.base("l1"), x.flat_words())
    stream = weight_stream_words(job, spec, w)
    mem.write_words(mem.base("sram"), stream)
    tb = mem.base("sram") + 4 * len(stream)
    mem.write(tb, threshold_stream_bytes(job, thr))
    return JobDescriptor(geom=job.geom, w_base=mem.base("sram"),
                         x_base=mem.base("l1"),
                         y_base=mem.base("l1") + 0x1000, thr_base=tb,
                         shift=thr.shift, masks=job.masks(),
                         valid_out=job.valid_out)


def test_double_buffer_and_busy():
    mem = Memory()
    eng = Engine(EngineConfig(tp=128), mem)
    j = _tiny_job(mem)
    eng.submit(j)
    eng.submit(j)
    assert eng.busy
    with pytest.raises(BusyError):
        eng.submit(j)
    assert eng.run_next() is not None
    assert not eng.busy
    assert eng.run_next() is not None
    assert eng.run_next() is None


def test_walk_schedule_disagreement_raises(monkeypatch):
    # the walk-vs-schedule check must hold under python -O too
    def off_by_one(geom, valid_out, cfg):
        s = phase_schedule(geom, valid_out, cfg)
        s.accumulate += 1
        return s
    mem = Memory()
    job = _tiny_job(mem)
    monkeypatch.setattr(engine, "phase_schedule", off_by_one)
    with pytest.raises(PlanError, match="8 accumulate cycles.* 9"):
        run_single_job(EngineConfig(tp=128), mem, job)


def test_tp_mismatch_rejected():
    mem = Memory()
    eng = Engine(EngineConfig(tp=256), mem)
    with pytest.raises(PlanError):
        eng.submit(_tiny_job(mem))


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
    plan = plan_layer(spec, 128)
    job = plan.jobs[0]
    mem.write_words(mem.base("l1"), x.flat_words())
    stream = weight_stream_words(job, spec, w)
    mem.write_words(mem.base("sram"), stream)
    tb = mem.base("sram") + 4 * len(stream)
    mem.write(tb, threshold_stream_bytes(job, thr))
    y_base = mem.base("l1") + 0x1000
    mem.write(y_base, np.full(16, 0xAA, dtype=np.uint8))
    desc = JobDescriptor(geom=job.geom, w_base=mem.base("sram"),
                         x_base=mem.base("l1"), y_base=y_base, thr_base=tb,
                         shift=thr.shift, masks=job.masks(),
                         valid_out=job.valid_out)
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
        plan = plan_layer(spec, 128)
        job = plan.jobs[0]
        mem.write_words(mem.base("l1"), xt.flat_words())
        stream = weight_stream_words(job, spec, wt)
        mem.write_words(mem.base("hyperram"), stream)  # too big for sram
        tb = mem.base("hyperram") + 4 * len(stream)
        mem.write(tb, threshold_stream_bytes(job, thr))
        desc = JobDescriptor(geom=job.geom, w_base=mem.base("hyperram"),
                             x_base=mem.base("l1"),
                             y_base=mem.base("l1") + 0x8000, thr_base=tb,
                             shift=thr.shift, masks=job.masks(),
                             valid_out=job.valid_out)
        run_single_job(EngineConfig(tp=128, saturate=sat), mem, desc)
        outs[sat] = int(mem.read(mem.base("l1") + 0x8000, 1)[0])
    assert outs[False] == 0xFF   # 65550 >= 65536
    assert outs[True] == 0x00    # clamped 65535 < 65536
    assert spec.n_acc > ACC_MAX


def test_schedule_helper_direct():
    spec = LayerSpec(nif=128, nof=128, fs=3, h_out=2, w_out=2)
    plan = plan_layer(spec, 128)
    j = plan.jobs[0]
    s = phase_schedule(j.geom, j.valid_out, EngineConfig(tp=128))
    assert s.total == plan.cycles(EngineConfig(tp=128))
