import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xnesim.analytic import (CoefficientSet, ModeEnergy, account_energy,
                             get_network, load_coefficients, run_network)
from xnesim.cli import main
from xnesim.errors import (DecodeError, ModeError, RegionError, ShapeError,
                           XneError)
from xnesim.memory import Memory, realign


def test_default_map_sizes():
    m = Memory()
    assert m.regions["scm"].size == 8 * 1024
    assert m.regions["sram"].size == 448 * 1024
    assert m.regions["l1"].size == 64 * 1024
    assert m.regions["hyperram"].size == 8 * 1024 * 1024


def test_read_write_and_traffic():
    m = Memory()
    a = m.base("sram")
    m.write(a + 4, np.arange(8, dtype=np.uint8))
    assert m.read(a + 4, 8).tolist() == list(range(8))
    assert m.traffic["sram"]["write_bits"] == 64
    assert m.traffic["sram"]["read_bits"] == 64


def test_word_access_round_trips_little_endian():
    m = Memory()
    a = m.base("l1")
    m.write_words(a, np.array([0x01020304, 0xAABBCCDD], dtype=np.uint32))
    assert m.read(a, 1)[0] == 0x04  # little endian
    assert m.read_words(a, 2).tolist() == [0x01020304, 0xAABBCCDD]
    with pytest.raises(RegionError):
        m.read_words(a + 2, 1)


def test_unmapped_and_powered_off():
    m = Memory()
    with pytest.raises(RegionError):
        m.read(0x0, 1)
    with pytest.raises(RegionError):
        m.read(m.base("scm") + 8 * 1024 - 2, 4)  # straddles the end
    m.read(m.base("scm") + 8 * 1024 - 4, 4)   # ends exactly at the end


def test_region_allocated_on_first_write():
    tracemalloc.start()
    try:
        m = Memory()
        hyper = m.base("hyperram")
        assert m.read(hyper + 100, 4).tolist() == [0] * 4   # never written
        untouched = tracemalloc.get_traced_memory()[1]
        m.write(hyper, np.ones(4, dtype=np.uint8))
        written = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert untouched < (1 << 20) and written >= 8 << 20
    assert m.read(hyper, 8).tolist() == [1] * 4 + [0] * 4
    assert m.traffic["hyperram"] == {"read_bits": 96, "write_bits": 32}


def test_gather_and_scatter_equal_single_accesses():
    # overlapping writes of mixed lengths land in order, and reads of
    # never-written bytes see zeros; data and traffic match one call
    # per access
    rng = np.random.default_rng(0)
    many, one = Memory(), Memory()
    addrs = many.base("sram") + 4 * rng.integers(0, 64, 40)
    rows = rng.integers(0, 256, (40, 12), dtype=np.uint8)
    nbytes = rng.integers(1, 13, 40)
    many.scatter(addrs, rows, nbytes)
    for a, r, n in zip(addrs.tolist(), rows, nbytes.tolist()):
        one.write(a, r[:n])
    reads = np.append(addrs, many.base("sram") + 1024)
    got, inverse = many.gather_words(reads, 3)
    assert len(got) < len(reads)            # each address fetched once
    assert np.array_equal(got[inverse],
                          [one.read_words(a, 3) for a in reads.tolist()])
    assert many.traffic == one.traffic
    # a repeat count charges every access that many times over
    again, inverse = many.gather_words(reads, 3, 5)
    for _ in range(5):
        for a in reads.tolist():
            one.read_words(a, 3)
    assert np.array_equal(again[inverse], got[inverse])
    assert many.traffic == one.traffic


def _scatter_both(addrs, rows, nbytes):
    """One scatter, and one write per access in order, on two fresh
    memories; asserts equal traffic and equal bytes in every region."""
    many, one = Memory(), Memory()
    many.scatter(addrs, rows, nbytes)
    for a, r, n in zip(np.asarray(addrs).tolist(), rows,
                       np.broadcast_to(nbytes, len(rows)).tolist()):
        one.write(a, r[:n])
    assert many.traffic == one.traffic
    for r in many.regions.values():
        assert np.array_equal(many.read(r.base, r.size),
                              one.read(r.base, r.size)), r.name
    return many, one


def test_gather_and_scatter_across_regions():
    # a batch in l1 and one in sram each find their own region, in data
    # and in traffic, a repeat count charging every access that many
    # times; a never-written scm batch reads zero
    rng = np.random.default_rng(1)
    scm = Memory().base("scm")
    for name in ("l1", "sram"):
        addrs = Memory().base(name) + 16 * rng.permutation(15)
        rows = rng.integers(0, 256, (15, 16), dtype=np.uint8)
        many, one = _scatter_both(addrs, rows, rng.integers(1, 17, 15))
        reads = np.concatenate([addrs[::-1], addrs[:5]])
        got, inverse = many.gather_words(reads, 2, 3)
        want = [one.read_words(a, 2) for a in reads.tolist()
                for _ in range(3)]
        assert np.array_equal(np.repeat(got[inverse], 3, axis=0), want)
        got, inverse = many.gather_words([scm, scm + 8, scm], 2, 3)
        for a in [scm, scm + 8, scm] * 3:
            assert not one.read_words(a, 2).any()
        assert got.shape == (2, 2) and not got[inverse].any()
        assert many.traffic == one.traffic, name


def test_a_batch_across_regions_is_refused():
    # accesses alternate between l1 and sram: the batch lies in l1, its
    # first access's region, and the first sram access is named before
    # anything is charged or written
    m = Memory()
    l1, sram = m.base("l1"), m.base("sram")
    addrs = np.where(np.arange(6) % 2, sram, l1) + 16 * np.arange(6)
    first = f"{sram + 16:#x}, \\+"
    with pytest.raises(RegionError, match=first + "16"):
        m.gather(addrs, 16)
    with pytest.raises(RegionError, match=first + "8"):
        m.gather_words(addrs, 2, 3)
    with pytest.raises(RegionError, match=first + "4"):
        m.scatter(addrs, np.ones((6, 4), dtype=np.uint8), 4)
    # an empty batch lies in no region and charges nothing
    rows, inverse = m.gather_words([], 2)
    m.scatter([], np.zeros((0, 4), dtype=np.uint8), 4)
    assert rows.shape == (0, 2) and not len(inverse)
    assert m.traffic == Memory().traffic
    assert not m.read(l1, 96).any() and not m.read(sram, 96).any()


def test_scatter_disjoint_rows_out_of_address_order():
    # rows of mixed lengths that never share a byte, given in a
    # shuffled order: written at once, as one write each would
    rng = np.random.default_rng(2)
    starts = np.cumsum(rng.integers(1, 9, 50))
    nbytes = np.diff(starts, append=starts[-1] + 8) - rng.integers(0, 2, 50)
    order = rng.permutation(50)
    rows = rng.integers(1, 256, (50, 8), dtype=np.uint8)
    _scatter_both(Memory().base("l1") + starts[order], rows,
                  nbytes[order])


def test_scatter_one_overlapping_pair_keeps_the_later_write():
    a = Memory().base("sram")
    rows = np.array([[1] * 8, [2] * 8, [3] * 8, [4] * 8], dtype=np.uint8)
    # rows 1 and 3 overlap in bytes 20..23: row 3, written later, wins
    many, _ = _scatter_both([a + 40, a + 16, a, a + 20], rows, [8, 8, 4, 8])
    assert many.read(a + 16, 12).tolist() == [2] * 4 + [4] * 8
    # and the earlier row's bytes stay where the later one stops short
    many, _ = _scatter_both([a + 16, a + 18], rows[[1, 3]], [8, 4])
    assert many.read(a + 16, 8).tolist() == [2] * 2 + [4] * 4 + [2] * 2


def test_gather_and_scatter_name_the_first_bad_access():
    m = Memory()
    scm, end = m.base("scm"), m.base("scm") + m.regions["scm"].size
    with pytest.raises(RegionError, match=f"{end - 4:#x}, \\+8"):
        m.gather([scm, end - 4, 0x0], 8)
    with pytest.raises(RegionError, match=f"unaligned {scm + 2:#x}"):
        m.gather_words([scm, scm + 2], 1)
    with pytest.raises(RegionError, match=f"{end - 2:#x}, \\+3"):
        m.scatter([scm, end - 2], np.zeros((2, 4), dtype=np.uint8), [4, 3])
    # with a repeat count too, and before anything is charged
    with pytest.raises(RegionError, match=f"{end - 4:#x}, \\+8"):
        m.gather([scm, end - 4, 0x0], 8, 3)
    with pytest.raises(RegionError, match=f"unaligned {scm + 2:#x}"):
        m.gather_words([scm, scm + 2], 1, 3)
    assert m.traffic == Memory().traffic


@given(st.integers(0, 3), st.integers(0, 97), st.data())
@settings(max_examples=120)
def test_realign_matches_byte_oracle(offset, nbytes, data):
    total = offset + nbytes
    nwords = (total + 3) // 4 + data.draw(st.integers(0, 2))
    raw = data.draw(st.binary(min_size=4 * max(nwords, 1),
                              max_size=4 * max(nwords, 1)))
    words = np.frombuffer(raw, dtype="<u4").astype(np.uint32)
    out = realign(words, offset, nbytes)
    # oracle: slice the byte stream directly, zero-pad to words
    want = bytearray(raw[offset:offset + nbytes])
    want.extend(b"\0" * ((-len(want)) % 4))
    assert out.astype("<u4").tobytes() == bytes(want)


def test_realign_rejects_bad_args():
    with pytest.raises(ShapeError):
        realign(np.zeros(1, dtype=np.uint32), 4, 1)
    with pytest.raises(ShapeError):
        realign(np.zeros(1, dtype=np.uint32), 1, 4)  # needs 2 words


def test_mode_table_energy_split():
    cs = CoefficientSet()
    sram = cs.mode("sram-0v6")
    assert sram.total_fj_per_op == pytest.approx(115.0)
    assert sram.local_fj_per_op / sram.engine_fj_per_op == pytest.approx(
        7.1, rel=0.01)
    scm = cs.mode("scm-0v4")
    assert scm.total_fj_per_op == pytest.approx(21.6)
    assert scm.local_fj_per_op / scm.engine_fj_per_op == pytest.approx(
        7.1 / 3, rel=0.01)
    marshal = cs.mode("marshal-0v6")
    assert marshal.total_fj_per_op == pytest.approx(52.0)
    assert cs.mode("scm-0v5").total_fj_per_op == pytest.approx(40.2)
    assert cs.mode("hyperram").freq_mhz == 490.0
    with pytest.raises(ModeError):
        cs.mode("nope")


def test_account_energy_composition():
    cs = CoefficientSet(leakage_mw=1.5)
    e = account_energy(ops=10**9, marshal_bits=10**6, hyperram_bits=10**6,
                       seconds=2.0, m=cs.mode("sram-0v6"), cs=cs)
    assert e.compute_j == pytest.approx(10**9 * 115e-15)
    assert e.engine_j + e.local_j == pytest.approx(e.compute_j)
    assert e.marshal_j == pytest.approx(8.7e-6)
    assert e.dma_j == pytest.approx(28.6e-6)
    assert e.leakage_j == pytest.approx(3e-3)
    assert e.total_j == pytest.approx(
        e.compute_j + e.marshal_j + e.dma_j + e.leakage_j)
    assert e.memory_j == pytest.approx(e.marshal_j + e.dma_j)
    tot = e + e
    assert tot.total_j == pytest.approx(2 * e.total_j)


def test_load_coefficients_partial_override(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "hyperram_pj_per_bit: 30.0\n"
        "modes:\n"
        "  sram-0v6: {engine_fj_per_op: 20.0}\n")
    cs = load_coefficients(str(p))
    assert cs.hyperram_pj_per_bit == 30.0
    assert cs.mode("sram-0v6").engine_fj_per_op == 20.0
    assert cs.mode("sram-0v6").local_fj_per_op == 100.8  # untouched
    assert cs.marshal_pj_per_bit == 8.7


@pytest.mark.parametrize("text, problem", [
    ("- 1.0\n- 2.0\n", "must be a mapping"),
    ("hyperram_pj_per_bt: 31.0\n", "'hyperram_pj_per_bt'"),
    ("modes:\n  scm-0v4: {freq_ghz: 0.06}\n", "'freq_ghz'"),
    ("leakage_mw:\n", "leakage_mw must be a number, got None"),
    ("marshal_pj_per_bit: abc\n", "marshal_pj_per_bit must be a number"),
    ("modes:\n  new-0v7: {engine_fj_per_op: 10.0, local_fj_per_op: 20.0}\n",
     "mode 'new-0v7' needs freq_mhz, weights_region"),
    ("modes:\n  scm-0v4: {weights_region: dram}\n",
     "weights_region 'dram' is not one of"),
    ("modes:\n  scm-0v4: {freq_mhz: -5}\n", "freq_mhz must be positive"),
    ("hyperram_bits_per_s: 0\n", "hyperram_bits_per_s must be positive"),
    # ints too large for a float once ended in an OverflowError
    (f"hyperram_bits_per_s: 1{'0' * 400}\n",
     "hyperram_bits_per_s must be finite, got inf"),
    (f"modes:\n  sram-0v6: {{freq_mhz: 1{'0' * 400}}}\n",
     "'sram-0v6' freq_mhz must be finite, got inf"),
    # falsy values of the wrong kind were once read as empty
    ("0\n", "must be a mapping, got int"),
    ("false\n", "must be a mapping, got bool"),
    ("[]\n", "must be a mapping, got list"),
    ("''\n", "must be a mapping, got str"),
    ("modes: 0\n", "modes must be a mapping, got int"),
    ("modes: []\n", "modes must be a mapping, got list"),
    ("modes: false\n", "modes must be a mapping, got bool"),
], ids=["not-a-mapping", "unknown-key", "unknown-mode-field", "null-value",
        "not-a-number", "new-mode-partial", "unknown-region",
        "negative-freq", "zero-rate", "rate-int-too-large-for-a-float",
        "freq-int-too-large-for-a-float", "doc-zero", "doc-false",
        "doc-empty-list", "doc-empty-string", "modes-zero",
        "modes-empty-list", "modes-false"])
def test_load_coefficients_rejects_bad_yaml(tmp_path, text, problem):
    p = tmp_path / "c.yaml"
    p.write_text(text)
    with pytest.raises(DecodeError, match=problem):
        load_coefficients(str(p))


@pytest.mark.parametrize("text", ["", "{}\n", "modes:\n"],
                         ids=["empty-file", "empty-mapping", "modes-null"])
def test_load_coefficients_reads_empty_as_the_defaults(tmp_path, text):
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert load_coefficients(str(p)) == CoefficientSet()



@pytest.mark.parametrize("text, problem", [
    ("hyperram_bits_per_s: 0\n", "hyperram_bits_per_s must be positive"),
    ("marshal_bits_per_cycle: 1e300\n", "marshal_bits_per_cycle 1e+300 "
                                         "overflows"),
    # a mode field's error once lacked the colon, or the path itself
    ("modes: {sram-0v6: {freq_mhz: abc}}\n",
     "mode 'sram-0v6' freq_mhz must be a number, got 'abc'"),
    ("modes: {sram-0v6: {freq_mhz: 1e400}}\n",
     "mode 'sram-0v6' freq_mhz must be finite, got inf"),
    ("modes: {sram-0v6: {freq_ghz: 1}}\n",
     "unknown key 'freq_ghz' in mode 'sram-0v6'; expected one of "
     "engine_fj_per_op, local_fj_per_op, freq_mhz, weights_region"),
    ("- 1.0\n", "the document must be a mapping, got list"),
    # the loader's wording follows it; the message is one line
    ("a: [1\n", "not valid YAML: while parsing a flow sequence "),
], ids=["zero-rate", "marshal-bits-per-s-overflows", "mode-field-not-a-number",
        "mode-field-not-finite", "mode-field-unknown", "document-not-a-mapping",
        "malformed-yaml"])
def test_load_coefficients_names_the_file(tmp_path, text, problem):
    # the set checks itself; a load prefixes its message with the path
    p = tmp_path / "c.yaml"
    p.write_text(text)
    with pytest.raises(DecodeError, match=f"^{re.escape(f'{p}: {problem}')}"
                                          "[^\n]*$"):
        load_coefficients(str(p))

# each escape of a set built in Python, unchecked before: a division by
# zero, a dropped transfer time (ResNet-34 hyperram read 0.0888 s, not
# 0.1147 s), a negative leakage (1,593 uJ, not 2,167 uJ), a nan that
# the energy check named as hyperram_pj_per_bit, and values of the
# wrong type, which ended in a TypeError
@pytest.mark.parametrize("key, value", [
    ("hyperram_bits_per_s", 0.0), ("hyperram_bits_per_s", math.nan),
    ("hyperram_bits_per_s", -1.0), ("leakage_mw", -5.0),
    ("leakage_mw", math.nan), ("marshal_bits_per_cycle", 1e300),
    ("leakage_mw", "x"), ("leakage_mw", True), ("modes", None),
    ("leakage_mw", 10**400),
], ids=["rate-zero", "rate-nan", "rate-negative", "leakage-negative",
        "leakage-nan", "marshal-bits-per-s-overflows", "leakage-str",
        "leakage-bool", "modes-none", "leakage-int-too-large-for-a-float"])
def test_coefficient_set_checks_itself(key, value):
    with pytest.raises(DecodeError, match=f"^{key} "):
        CoefficientSet(**{key: value})


def test_mode_energy_values_are_numbers():
    with pytest.raises(DecodeError,
                       match="^mode 'm' engine_fj_per_op must be a number"):
        ModeEnergy("m", "x", 1.0, 1.0, "scm")
    # a name that is not a string once made ModeError's sorted list of
    # names end in a TypeError
    with pytest.raises(DecodeError, match="^mode name must be a string"):
        ModeEnergy(1, 1.0, 1.0, 1.0, "scm")


def test_coefficients_are_kept_as_floats():
    # an int that fits a float is kept as one, so no sum or product of
    # coefficients is an int too large for a float: these energies
    # overflow to inf and are refused, not an OverflowError
    m = ModeEnergy("m", 10**308, 10**308, 250, "sram")
    assert type(m.engine_fj_per_op) is type(m.freq_mhz) is float
    assert type(CoefficientSet(leakage_mw=3).leakage_mw) is float
    with pytest.raises(DecodeError, match="energy is not finite"):
        run_network(get_network("mvgg-2"), "m",
                    coeffs=CoefficientSet(modes={"m": m}))


def test_coefficient_set_modes_are_mode_energies_under_their_names():
    sram = CoefficientSet().mode("sram-0v6")
    with pytest.raises(DecodeError, match="mode 'fast' must be a ModeEnergy"):
        CoefficientSet(modes={"fast": sram})
    with pytest.raises(DecodeError, match="mode 'x' must be a ModeEnergy"):
        CoefficientSet(modes={"x": 1.0})


def test_coefficient_set_is_immutable():
    modes = dict(CoefficientSet().modes)
    cs = CoefficientSet(modes=modes)
    with pytest.raises(TypeError):
        cs.modes["sram-0v6"] = cs.mode("scm-0v4")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cs.leakage_mw = 1.0
    del modes["sram-0v6"]      # the caller's dict is not the set's
    assert "sram-0v6" in cs.modes
    with pytest.raises(TypeError):
        CoefficientSet().modes["new"] = cs.mode("scm-0v4")


# values a Python caller may give a coefficient: the extremes that
# escaped the checks before, those that pass them (1e308, -0.0, 1e-306,
# 1e-320, ints that fit a float), huge ints, bools, strings and None,
# and any float or int
_EXTREME = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -0.0, 1e-306,
                     1e-320, 10**300, 2**1023, 10**400, -10**400, True,
                     "1.0", None]),
    st.floats(), st.integers())
_MODE_FIELDS = [f.name for f in dataclasses.fields(ModeEnergy)]
_SCALARS = [f.name for f in dataclasses.fields(CoefficientSet)
            if f.name != "modes"]
_FUZZ_NETS = [get_network(n) for n in ("resnet34", "mvgg-2", "mvgg-f")]


def _one_error_or(call, *args):
    """call(*args), or None where it raises one XneError, with a
    one-line message; any other exception fails the test."""
    try:
        return call(*args)
    except XneError as ex:
        assert len(str(ex).splitlines()) == 1, repr(ex)
        return None


@given(st.dictionaries(st.sampled_from(_SCALARS), _EXTREME, max_size=2),
       st.dictionaries(
           st.sampled_from([*CoefficientSet().modes, "new-0v7"]) | _EXTREME,
           st.dictionaries(st.sampled_from(_MODE_FIELDS),
                           _EXTREME | st.sampled_from(
                               ["scm", "sram_marshal", "hyperram"]),
                           max_size=2), max_size=2))
@settings(max_examples=100, deadline=None)
def test_python_coefficients_meet_the_error_contract(scalars, drawn):
    # a set built in Python from any values raises one XneError, or
    # prices every run: each run_network call over a few networks x
    # its modes and an unknown one x tps then raises one XneError or
    # returns totals that are finite in the units printed (us, ops/s
    # and uJ). A mode drawn anew starts from sram-0v6's fields
    def build():
        modes = dict(CoefficientSet().modes)
        for name, kw in drawn.items():
            fields = dataclasses.asdict(modes.get(name, modes["sram-0v6"]))
            modes[name] = ModeEnergy(**{**fields, "name": name, **kw})
        return CoefficientSet(modes, **scalars)

    cs = _one_error_or(build)
    for net, mode, tp in itertools.product(
            _FUZZ_NETS, [*cs.modes, "unknown"] if cs else (),
            (32, 128, 512)):
        rep = _one_error_or(run_network, net, mode, tp, cs)
        if rep is not None:
            assert math.isfinite(rep.total_seconds * 1e6)
            assert math.isfinite(rep.total_ops / rep.total_seconds)
            assert math.isfinite(rep.energy.total_j * 1e6)


def test_runs_share_the_default_set(monkeypatch, capsys):
    # neither run_network nor the CLI builds a set when given none
    def built(self):
        raise AssertionError("built a CoefficientSet")

    monkeypatch.setattr(CoefficientSet, "__post_init__", built)
    rep = run_network(get_network("resnet34"), "hyperram")
    assert rep.total_seconds == pytest.approx(0.1147, abs=1e-4)
    assert rep.energy.total_j * 1e6 == pytest.approx(2166.7, abs=0.1)
    assert main(["report", "mvgg-2"]) == 0
    capsys.readouterr()
