import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xnesim import engine, microcode as mc
from xnesim.errors import UcodeSyntaxError
from xnesim.microcode import (BITSTREAM_LEN, JobGeometry, LoopSpec,
                              MicroInstruction, MicrocodeProgram, Op,
                              UcodeState, disassemble, offset_sequence,
                              parse_program, program_to_yaml,
                              reference_program, reference_range_regs,
                              ucode_registers, walk_offsets)

MASK32 = 0xFFFFFFFF


def oracle_offsets(g: JobGeometry):
    """Closed-form walk the reference program must reproduce: weights in
    flat (k_out, fi, fj, k_in) blocks rewound every output pixel, the
    feature pointer tracking the receptive field, outputs tile-major."""
    out = []
    for i in range(g.h_out):
        for j in range(g.w_out):
            for ko in range(g.kout_tiles):
                for ui in range(g.fs):
                    for uj in range(g.fs):
                        for ki in range(g.kin_tiles):
                            w = ((((ko * g.fs + ui) * g.fs + uj)
                                  * g.kin_tiles + ki) * g.tp * g.tp) & MASK32
                            x = ((i + ui) * g.x_row_stride
                                 + (j + uj) * g.x_pixel_stride
                                 + ko * g.band_step + ki * g.tp) & MASK32
                            y = (i * g.y_row_stride + j * g.y_pixel_stride
                                 + ko * g.tp) & MASK32
                            out.append((w, x, y))
    return out


def test_instruction_encoding_fields():
    ins = MicroInstruction(Op.ADD, 2, 19)
    b = ins.encode()
    assert b == (1 << 7) | (2 << 5) | 19
    back = MicroInstruction.decode(b)
    assert (back.op, back.dst, back.src) == (Op.ADD, 2, 19)
    mv = MicroInstruction.decode((0 << 7) | (3 << 5) | 4)
    assert (mv.op, mv.dst, mv.src) == (Op.MV, 3, 4)


def test_instruction_validation():
    with pytest.raises(UcodeSyntaxError):
        MicroInstruction(Op.ADD, 4, 0)   # not a pointer register
    with pytest.raises(UcodeSyntaxError):
        MicroInstruction(Op.ADD, 0, 20)  # register does not exist
    with pytest.raises(UcodeSyntaxError):
        MicroInstruction.decode(0x1F | (1 << 5) | 0x80 | 0x14)


def test_loop_spec_validation():
    with pytest.raises(UcodeSyntaxError):
        LoopSpec(16, 1, 4)    # base field is 4 bits
    with pytest.raises(UcodeSyntaxError):
        LoopSpec(0, 0, 4)     # zero-length body
    with pytest.raises(UcodeSyntaxError):
        LoopSpec(0, 1, 2)     # range from a pointer register


def test_program_window_validation():
    ins = [MicroInstruction(Op.ADD, 0, 4) for _ in range(6)]
    with pytest.raises(UcodeSyntaxError):
        MicrocodeProgram(ins, [LoopSpec(0, 3, 4), LoopSpec(2, 2, 5)])
    with pytest.raises(UcodeSyntaxError):
        MicrocodeProgram(ins, [LoopSpec(4, 4, 4)])  # past the end
    with pytest.raises(UcodeSyntaxError):
        MicrocodeProgram([MicroInstruction(Op.MV, 0, 10)] * 23, [])


@pytest.mark.parametrize("prog", [reference_program(), engine._PROGRAM],
                         ids=["reference_program", "engine._PROGRAM"])
@pytest.mark.parametrize("name", ["instructions", "loops"])
def test_program_is_frozen(prog, name):
    # checked once when built, so nothing may change it afterwards
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(prog, name, ())


def test_program_from_lists_equals_from_tuples():
    ref = reference_program()
    prog = MicrocodeProgram(list(ref.instructions), list(ref.loops))
    assert prog == MicrocodeProgram(tuple(ref.instructions), tuple(ref.loops))
    assert isinstance(prog.instructions, tuple)
    assert isinstance(prog.loops, tuple)


def test_reference_program_is_28_bytes():
    blob = reference_program().assemble()
    assert len(blob) == BITSTREAM_LEN == 28


def test_reference_program_frozen_encoding():
    # pins the byte-exact encoding; any ISA or program change must be deliberate
    assert reference_program().assemble().hex() == (
        "84a584ae84e82384c5f0230acff1230ad3f223000000202234474b4f")


def test_reference_roundtrip_lossless():
    prog = reference_program()
    blob = prog.assemble()
    back = disassemble(blob, reference_range_regs())
    assert back.assemble() == blob
    assert len(back.instructions) == len(prog.instructions) == 19
    assert [(i.op, i.dst, i.src) for i in back.instructions] == \
           [(i.op, i.dst, i.src) for i in prog.instructions]
    assert back.loops == prog.loops


rand_instr = st.builds(
    MicroInstruction,
    st.sampled_from([Op.MV, Op.ADD]),
    st.integers(0, 3),
    st.integers(0, mc.N_REGS - 1),
)


@st.composite
def rand_program(draw):
    n_loops = draw(st.integers(0, mc.MAX_LOOPS))
    windows = []
    pos = 0
    for _ in range(n_loops):
        count = draw(st.integers(1, 2))
        if pos > 0xF or pos + count > mc.MAX_INSTRUCTIONS:
            break
        windows.append((pos, count))
        pos += count
    tail = draw(st.integers(0, 2))  # dead instructions after the windows
    n_ins = min(pos + tail, mc.MAX_INSTRUCTIONS)
    ins = [draw(rand_instr) for _ in range(n_ins)]
    # dead tail must not be zero-encoded or the disassembler will trim it
    for k in range(pos, n_ins):
        if ins[k].encode() == 0:
            ins[k] = MicroInstruction(Op.MV, 0, 4)
    loops = [LoopSpec(b, c, draw(st.integers(4, 19))) for b, c in windows]
    return MicrocodeProgram(ins, loops)


@given(rand_program())
@settings(max_examples=150)
def test_assemble_disassemble_roundtrip(prog):
    blob = prog.assemble()
    back = disassemble(blob, [lp.range_reg for lp in prog.loops])
    assert back.assemble() == blob
    assert [(i.op, i.dst, i.src) for i in back.instructions] == \
           [(i.op, i.dst, i.src) for i in prog.instructions]
    assert back.loops == prog.loops


def test_disassemble_rejects_malformed():
    with pytest.raises(UcodeSyntaxError):
        disassemble(bytes(27))
    bad = bytearray(28)
    bad[22] = 0x05  # count 0, base 5
    with pytest.raises(UcodeSyntaxError):
        disassemble(bytes(bad))
    gap = bytearray(28)
    gap[22] = 0x12  # loop slot 0 active
    gap[24] = 0x12  # slot 2 active with slot 1 empty
    with pytest.raises(UcodeSyntaxError):
        disassemble(bytes(gap))
    lone = bytearray(28)
    lone[25] = 0x12  # the only active loop sits in slot 3, not slot 0
    with pytest.raises(UcodeSyntaxError, match="from slot 0"):
        disassemble(bytes(lone))


def test_digit_counter_semantics():
    """Two nested loops: only the firing loop's window executes."""
    r = mc.REG_NAMES
    prog = MicrocodeProgram(
        [MicroInstruction(Op.ADD, r["W"], r["tp"]),      # inner: W += tp
         MicroInstruction(Op.ADD, r["W"], r["tp_square"])],  # outer
        [LoopSpec(0, 1, r["nif"]), LoopSpec(1, 1, r["nof"])])
    ro = np.zeros(mc.N_RO, dtype=np.uint32)
    ro[r["tp"] - 4] = 10
    ro[r["tp_square"] - 4] = 1000
    ro[r["nif"] - 4] = 3
    ro[r["nof"] - 4] = 2
    seq = [w for w, _, _ in UcodeState(prog, ro).run()]
    # inner advances add 10; outer advance adds 1000 and does NOT re-run inner
    assert seq == [0, 10, 20, 1020, 1030, 1040]


def test_zero_range_empties_sequence():
    prog = reference_program()
    g = JobGeometry(tp=32, fs=1, h_out=1, w_out=1, kin_tiles=1, kout_tiles=1,
                    band_step=0, x_pixel_stride=32, x_row_stride=32,
                    y_pixel_stride=32, y_row_stride=32)
    ro = ucode_registers(g)
    ro[mc.RO_NAMES["nof"] - 4] = 0
    assert UcodeState(prog, ro).run() == []


def test_single_iteration_emits_initial_state():
    g = JobGeometry(tp=64, fs=1, h_out=1, w_out=1, kin_tiles=1, kout_tiles=1,
                    band_step=0, x_pixel_stride=64, x_row_stride=64,
                    y_pixel_stride=64, y_row_stride=64)
    assert offset_sequence(reference_program(), g) == [(0, 0, 0)]


def test_ucode_registers_frozen_case():
    g = JobGeometry(tp=32, fs=3, h_out=4, w_out=5, kin_tiles=2, kout_tiles=3,
                    band_step=0, x_pixel_stride=64, x_row_stride=448,
                    y_pixel_stride=96, y_row_stride=480)
    ro = ucode_registers(g)
    n = mc.RO_NAMES
    expect = {
        "tp_square": 1024, "tp": 32, "nif": 2, "nof": 3,
        "w_X_nif": 448, "ow_X_nof": 480, "zero": 0, "fs": 3,
        "h_out": 4, "w_out": 5,
        "pix_adv": 32, "opix_adv": 32,
        "kout_rew": (0 - 2 * 448) & MASK32,
        "j_step": (64 - 2 * 448) & MASK32,
        "i_step": (448 - 4 * 64 - 2 * 448) & MASK32,
        "orow_adv": 480 - 4 * 96 - 2 * 32,
    }
    for name, want in expect.items():
        assert int(ro[n[name] - 4]) == want, name


GEOMS = [
    JobGeometry(32, 3, 2, 2, 2, 2, 0, 64, 256, 64, 256),
    JobGeometry(32, 1, 3, 4, 3, 5, 96, 480, 2880, 160, 800),   # banded
    JobGeometry(128, 3, 4, 4, 1, 1, 0, 128, 768, 128, 512),
    JobGeometry(32, 5, 2, 3, 1, 2, 0, 32, 224, 64, 192),
    JobGeometry(64, 1, 1, 1, 4, 4, 256, 1024, 1024, 256, 256),
]


@pytest.mark.parametrize("g", GEOMS)
def test_reference_walk_matches_oracle(g):
    seq = offset_sequence(reference_program(), g)
    want = oracle_offsets(g)
    assert len(seq) == g.iterations
    assert seq == want
    assert walk_offsets(reference_program(), ucode_registers(g)).tolist() \
        == [list(t) for t in want]


def test_interpreter_counts_cycles():
    import itertools
    g = GEOMS[0]
    st_ = UcodeState(reference_program(), ucode_registers(g))
    st_.run()
    # recompute from scratch: each mixed-radix advance fires exactly one
    # level and costs that loop's window size in cycles
    ranges = [2, 3, 3, 2, 2, 2]  # kin, fs, fs, kout, w, h for GEOMS[0]
    fires = [0] * 6
    prev = None
    for state in itertools.product(*[range(r) for r in reversed(ranges)]):
        cur = tuple(reversed(state))
        if prev is not None:
            hi = max(lvl for lvl in range(6) if cur[lvl] != prev[lvl])
            fires[hi] += 1
        prev = cur
    counts = [2, 2, 3, 4, 4, 4]
    assert st_.cycles == sum(f * c for f, c in zip(fires, counts))


@st.composite
def walk_case(draw):
    """A program of 0..6 loops over random windows (gaps allowed) of
    random MV/ADD rows, and read-only values anywhere in 32 bits, often
    within 100 of 2^32, except the trip counts: 0, 1 or a few."""
    windows, pos = [], 0
    for _ in range(draw(st.integers(0, mc.MAX_LOOPS))):
        base = pos + draw(st.integers(0, 1))
        count = draw(st.integers(1, 3))
        if base > 0xF or base + count > mc.MAX_INSTRUCTIONS:
            break
        windows.append((base, count))
        pos = base + count
    n_ins = min(pos + draw(st.integers(0, 2)), mc.MAX_INSTRUCTIONS)
    ins = [draw(rand_instr) for _ in range(n_ins)]
    ro = draw(st.lists(st.one_of(st.integers(0, MASK32),
                                 st.integers(MASK32 - 99, MASK32)),
                       min_size=mc.N_RO, max_size=mc.N_RO))
    loops = []
    for base, count in windows:
        reg = draw(st.integers(mc.N_RW, mc.N_REGS - 1))
        ro[reg - mc.N_RW] = draw(st.integers(0, 3))
        loops.append(LoopSpec(base, count, reg))
    return MicrocodeProgram(ins, loops), np.array(ro, dtype=np.uint32)


@given(walk_case())
@settings(max_examples=200, deadline=None)
def test_walk_offsets_equal_stepper(case):
    prog, ro = case
    got = walk_offsets(prog, ro)
    assert got.shape[1:] == (3,)
    assert got.tolist() == [list(t) for t in UcodeState(prog, ro).run()]


def test_yaml_roundtrip_of_reference():
    prog = reference_program()
    text = program_to_yaml(prog)
    back = parse_program(text)
    assert back.assemble() == prog.assemble()
    assert [lp.range_reg for lp in back.loops] == \
           [lp.range_reg for lp in prog.loops]


def test_yaml_parse_errors():
    with pytest.raises(UcodeSyntaxError):
        parse_program("code: [{op: nop, dst: W, src: tp}]")
    with pytest.raises(UcodeSyntaxError):
        parse_program("code: [{op: add, dst: tp, src: tp}]")  # RO dest
    with pytest.raises(UcodeSyntaxError):
        parse_program("just a string")
    with pytest.raises(UcodeSyntaxError):
        parse_program(
            "code:\n"
            "  - {name: a, op: add, dst: W, src: tp}\n"
            "  - {name: b, op: add, dst: x, src: tp}\n"
            "  - {name: c, op: add, dst: y, src: tp}\n"
            "loops:\n"
            "  - {range: nif, instructions: [a, c]}\n")  # not contiguous
    with pytest.raises(UcodeSyntaxError):
        parse_program("code: [{op: add, dst: W, src: nothere}]")


@pytest.mark.parametrize("text, problem", [
    ("code: 5\n", r"^code must be a list, got int$"),
    ("code: [5]\n", r"^code\[0\] must be a mapping, got int$"),
    ("mnemonics: 5\ncode: []\n", r"^mnemonics must be a mapping, got int$"),
    ("code: [{op: add, dst: W}]\n", r"^code\[0\] needs src$"),
    ("code: [{name: i0, op: add, dst: W, src: tp}]\n"
     "loops: [{range: nif, instructions: i0}]\n",
     r"^loops\[0\] instructions must be a list, got str$"),
    ("mnemonics: {a: true}\ncode: [{op: add, dst: a, src: tp}]\n",
     r"^mnemonics 'a' must be an integer, got bool$"),
    ("code: [{op: add, dst: true, src: tp}]\n", r"^unknown register True$"),
    ("code: [{op: add, dst: tp, src: tp}]\n",
     r"^code\[0\]: destination must be a pointer register$"),
    # falsy values of the wrong kind once assembled as empty
    ("code: []\nloops: 0\n", r"^loops must be a list, got int$"),
    ("code: []\nloops: {}\n", r"^loops must be a list, got dict$"),
    ("code: []\nmnemonics: 0\n", r"^mnemonics must be a mapping, got int$"),
    ("code: []\nmnemonics: []\n",
     r"^mnemonics must be a mapping, got list$"),
    ("code: []\nmnemonics: false\n",
     r"^mnemonics must be a mapping, got bool$"),
    ("code: [{op: add, dst: W, src: 20}]\n",
     r"^register index 20 out of range$"),
    ("mnemonics: {big: -1}\ncode: [{op: add, dst: W, src: big}]\n",
     r"^register index -1 out of range$"),
    ("code: [{name: a, op: add, dst: W, src: tp},"
     " {name: a, op: add, dst: x, src: tp}]\n",
     r"^duplicate instruction name 'a'$"),
    ("code: [{name: a, op: add, dst: W, src: tp}]\n"
     "loops: [{range: nif, instructions: []}]\n",
     r"^loops\[0\] has an empty body$"),
    ("code: [{name: a, op: add, dst: W, src: tp}]\n"
     "loops: [{range: nif, instructions: [a, b]}]\n",
     r"^loops\[0\] names unknown instruction 'b'$"),
    # the loader's wording follows it; the message is one line
    ("code: [{op: add\n", r"^not valid YAML: while parsing a flow mapping "
                          r"[^\n]*$"),
], ids=["code-not-list", "row-not-mapping", "mnemonics-not-mapping",
        "missing-src", "loop-body-not-list", "bool-mnemonic", "bool-dst",
        "ro-dst", "loops-zero", "loops-empty-mapping", "mnemonics-zero",
        "mnemonics-empty-list", "mnemonics-false", "register-index",
        "mnemonic-index", "duplicate-name", "empty-body",
        "unknown-instruction", "malformed-yaml"])
def test_yaml_malformed_fields(text, problem):
    with pytest.raises(UcodeSyntaxError, match=problem):
        parse_program(text)


def test_yaml_custom_mnemonics():
    prog = parse_program(
        "mnemonics: {stride: 8}\n"
        "code:\n"
        "  - {name: a, op: add, dst: x, src: stride}\n")
    assert prog.instructions[0].src == 8


def test_geometry_validation():
    with pytest.raises(UcodeSyntaxError):
        JobGeometry(32, 1, 1, 1, 1, 1, 0, 48, 32, 32, 32)  # unaligned stride
    with pytest.raises(UcodeSyntaxError):
        JobGeometry(32, 1, 0, 1, 1, 1, 0, 32, 32, 32, 32)
