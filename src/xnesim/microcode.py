"""Microcoded address generation.

The engine walks weights, features and outputs with three read/write
pointer registers (plus one helper), updated by a tiny loop-driven
program instead of fixed counters. A program is at most 22 one-byte
instructions and 6 loop descriptors:

    instruction byte:  op(1) | dst(2) | src(5)     msb..lsb
    loop byte:         count(4) | base(4)

op is MV (dst = src) or ADD (dst += src, mod 2^32). dst is one of the
four read/write registers; src any of the 20 registers. Each loop owns
a contiguous window [base, base+count) of the instruction list and a
trip count taken from a read-only register; which register feeds which
loop is job configuration, not part of the 28-byte bitstream.

Execution is a mixed-radix counter over the loops, innermost first.
The initial pointer state (all zero) is itself the first emission; on
every advance, the innermost non-exhausted loop increments, loops
inside it reset, and only that loop's window executes, one instruction
per cycle. A trip count of zero on any active loop empties the whole
sequence.

All pointer values are bit offsets into the streamer's address space.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum

from .errors import UcodeSyntaxError, expect, parse_yaml

# only the walk imports numpy, inside its functions: the codec needs none

MAX_INSTRUCTIONS = 22
MAX_LOOPS = 6
BITSTREAM_LEN = MAX_INSTRUCTIONS + MAX_LOOPS
N_RW = 4
N_RO = 16
N_REGS = N_RW + N_RO
MASK32 = 0xFFFFFFFF


class Op(IntEnum):
    MV = 0
    ADD = 1


# Read/write pointer registers.
RW_NAMES = {"W": 0, "x": 1, "y": 2, "x_major": 3}

# Read-only registers, filled per job from the layer geometry.
RO_NAMES = {
    "tp_square": 4,   # TP*TP, bits in one weight block
    "tp": 5,          # TP, bits in one vector
    "nif": 6,         # input tiles accumulated per output tile
    "nof": 7,         # output tiles
    "w_X_nif": 8,     # feature row stride
    "ow_X_nof": 9,    # output row stride
    "zero": 10,
    "fs": 11,         # filter size
    "h_out": 12,
    "w_out": 13,
    "pix_adv": 14,    # feature pixel advance net of the input-tile walk
    "opix_adv": 15,   # output pixel advance net of the output-tile walk
    "kout_rew": 16,   # rewind from last filter row to next band
    "j_step": 17,     # x_major advance per output column
    "i_step": 18,     # x_major advance per output row
    "orow_adv": 19,   # output row advance net of column/tile walks
}

REG_NAMES = {**RW_NAMES, **RO_NAMES}
REG_INDEX_TO_NAME = {v: k for k, v in REG_NAMES.items()}


@dataclass(frozen=True)
class MicroInstruction:
    op: Op
    dst: int
    src: int
    name: str | None = None  # label for loop membership; not encoded

    def __post_init__(self):
        if self.op not in (Op.MV, Op.ADD):
            raise UcodeSyntaxError(f"unknown op {self.op!r}")
        if not 0 <= self.dst < N_RW:
            raise UcodeSyntaxError(f"dst {self.dst} is not a pointer register")
        if not 0 <= self.src < N_REGS:
            raise UcodeSyntaxError(f"src {self.src} out of range")

    def encode(self) -> int:
        return (int(self.op) << 7) | (self.dst << 5) | self.src

    @classmethod
    def decode(cls, byte: int, name: str | None = None) -> "MicroInstruction":
        op = Op((byte >> 7) & 1)
        dst = (byte >> 5) & 0x3
        src = byte & 0x1F
        if src >= N_REGS:
            raise UcodeSyntaxError(f"instruction byte {byte:#04x} names "
                                   f"register {src}, only {N_REGS} exist")
        return cls(op, dst, src, name)


@dataclass(frozen=True)
class LoopSpec:
    """One loop level: window [base, base+count) of the instruction
    list, trip count read from read-only register range_reg."""

    base: int
    count: int
    range_reg: int

    def __post_init__(self):
        if not 0 <= self.base <= 0xF:
            raise UcodeSyntaxError(f"loop base {self.base} needs >4 bits")
        if not 1 <= self.count <= 0xF:
            raise UcodeSyntaxError(f"loop count {self.count} outside [1, 15]")
        if not N_RW <= self.range_reg < N_REGS:
            raise UcodeSyntaxError(
                f"loop range must come from a read-only register, "
                f"got {self.range_reg}")

    def encode(self) -> int:
        return (self.count << 4) | self.base


@dataclass(frozen=True)
class MicrocodeProgram:
    """Checked once, when built; loops innermost first, both as tuples."""

    instructions: tuple[MicroInstruction, ...]
    loops: tuple[LoopSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "loops", tuple(self.loops))
        if len(self.instructions) > MAX_INSTRUCTIONS:
            raise UcodeSyntaxError(
                f"{len(self.instructions)} instructions, "
                f"at most {MAX_INSTRUCTIONS} fit")
        if len(self.loops) > MAX_LOOPS:
            raise UcodeSyntaxError(
                f"{len(self.loops)} loops, at most {MAX_LOOPS} fit")
        pos = 0
        for i, lp in enumerate(self.loops):
            if lp.base < pos:
                raise UcodeSyntaxError(
                    f"loop {i} window overlaps an inner loop")
            if lp.base + lp.count > len(self.instructions):
                raise UcodeSyntaxError(
                    f"loop {i} window ends past the instruction list")
            pos = lp.base + lp.count

    def assemble(self) -> bytes:
        out = bytearray(BITSTREAM_LEN)
        for i, ins in enumerate(self.instructions):
            out[i] = ins.encode()
        for i, lp in enumerate(self.loops):
            out[MAX_INSTRUCTIONS + i] = lp.encode()
        return bytes(out)


def disassemble(data: bytes,
                range_regs: list[int] | None = None) -> MicrocodeProgram:
    """Decode a 28-byte bitstream.

    The bitstream does not carry loop trip-count bindings; pass the
    job's range_regs (innermost first) to recover them, else the zero
    register is assumed. Trailing zero bytes outside every loop window
    are padding, not instructions.
    """
    if len(data) != BITSTREAM_LEN:
        raise UcodeSyntaxError(
            f"bitstream is {len(data)} bytes, expected {BITSTREAM_LEN}")
    loops = []
    for i in range(MAX_LOOPS):
        b = data[MAX_INSTRUCTIONS + i]
        base, count = b & 0xF, b >> 4
        if count == 0:
            if base != 0:
                raise UcodeSyntaxError(
                    f"loop slot {i} has a base but zero count")
            continue
        if len(loops) != i:
            raise UcodeSyntaxError(
                "active loop slots must be contiguous from slot 0")
        rr = RO_NAMES["zero"]
        if range_regs is not None and i < len(range_regs):
            rr = range_regs[i]
        loops.append(LoopSpec(base, count, rr))
    covered = max((lp.base + lp.count for lp in loops), default=0)
    n = MAX_INSTRUCTIONS
    while n > covered and data[n - 1] == 0:
        n -= 1
    instrs = [MicroInstruction.decode(data[i], name=f"i{i}")
              for i in range(n)]
    return MicrocodeProgram(instrs, loops)


# ---------------------------------------------------------------------------
# YAML source format


def parse_program(source: bytes | str) -> MicrocodeProgram:
    """Load a program from its YAML source.

    Keys: optional `mnemonics` (extra register name -> index), `code`
    (list of {name, op, dst, src}), `loops` (innermost first, each
    {range, instructions: [names]}; the names must form a contiguous
    run of the code list). An optional key given no value is empty; a
    field of the wrong kind or a missing one raises UcodeSyntaxError
    naming it.
    """
    doc = expect(parse_yaml(source, UcodeSyntaxError), Mapping,
                 "program source", UcodeSyntaxError, needs=("code",))
    names = dict(REG_NAMES)
    for k, v in expect(doc.get("mnemonics"), Mapping, "mnemonics",
                       UcodeSyntaxError, optional=True).items():
        names[str(k)] = expect(v, int, f"mnemonics {k!r}", UcodeSyntaxError)

    def reg(tok) -> int:
        is_index = isinstance(tok, int) and not isinstance(tok, bool)
        idx = tok if is_index else names.get(str(tok))
        if idx is None:
            raise UcodeSyntaxError(f"unknown register {tok!r}")
        if not 0 <= idx < N_REGS:
            raise UcodeSyntaxError(f"register index {idx} out of range")
        return idx

    instrs = []
    label_pos = {}
    for i, row in enumerate(expect(doc["code"], list, "code",
                                   UcodeSyntaxError)):
        expect(row, Mapping, f"code[{i}]", UcodeSyntaxError,
               needs=("op", "dst", "src"))
        try:
            op = Op[str(row["op"]).upper()]
        except KeyError:
            raise UcodeSyntaxError(
                f"code[{i}]: op must be mv or add, got {row['op']!r}")
        label = str(row.get("name", f"i{i}"))
        if label in label_pos:
            raise UcodeSyntaxError(f"duplicate instruction name {label!r}")
        label_pos[label] = i
        dst = reg(row["dst"])
        if dst >= N_RW:
            raise UcodeSyntaxError(
                f"code[{i}]: destination must be a pointer register")
        instrs.append(MicroInstruction(op, dst, reg(row["src"]), label))

    loops = []
    for li, row in enumerate(expect(doc.get("loops"), list, "loops",
                                    UcodeSyntaxError, optional=True)):
        expect(row, Mapping, f"loops[{li}]", UcodeSyntaxError,
               needs=("range",))
        body = expect(row.get("instructions"), list,
                      f"loops[{li}] instructions", UcodeSyntaxError,
                      optional=True)
        if not body:
            raise UcodeSyntaxError(f"loops[{li}] has an empty body")
        pos = [label_pos.get(str(n)) for n in body]
        if None in pos:
            missing = body[pos.index(None)]
            raise UcodeSyntaxError(f"loops[{li}] names unknown "
                                   f"instruction {missing!r}")
        if pos != list(range(pos[0], pos[0] + len(pos))):
            raise UcodeSyntaxError(
                f"loops[{li}] body must be a contiguous run of code")
        loops.append(LoopSpec(pos[0], len(pos), reg(row["range"])))
    return MicrocodeProgram(instrs, loops)


def program_to_yaml(prog: MicrocodeProgram) -> str:
    import yaml   # imported where YAML is written, not at load

    names = [ins.name or f"i{i}" for i, ins in enumerate(prog.instructions)]
    code = [{"name": name, "op": ins.op.name.lower(),
             "dst": REG_INDEX_TO_NAME[ins.dst],
             "src": REG_INDEX_TO_NAME[ins.src]}
            for name, ins in zip(names, prog.instructions)]
    loops = [{"range": REG_INDEX_TO_NAME[lp.range_reg],
              "instructions": names[lp.base:lp.base + lp.count]}
             for lp in prog.loops]
    # libyaml writes the same text, faster
    return yaml.dump({"code": code, "loops": loops}, sort_keys=False,
                     Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))


# ---------------------------------------------------------------------------
# Job geometry -> read-only register values


@dataclass(frozen=True)
class JobGeometry:
    """Strides and trip counts of one engine job. All strides and the
    band step are bit offsets; every one must be 32-bit aligned."""

    tp: int
    fs: int
    h_out: int
    w_out: int
    kin_tiles: int        # feature/weight vectors accumulated per tap
    kout_tiles: int
    band_step: int        # input offset between output tiles' bands (0 = shared input)
    x_pixel_stride: int
    x_row_stride: int
    y_pixel_stride: int
    y_row_stride: int

    def __post_init__(self):
        for name in ("tp", "fs", "h_out", "w_out", "kin_tiles", "kout_tiles"):
            if getattr(self, name) < 1:
                raise UcodeSyntaxError(f"{name} must be >= 1")
        for name in ("band_step", "x_pixel_stride", "x_row_stride",
                     "y_pixel_stride", "y_row_stride"):
            if getattr(self, name) % 32:
                raise UcodeSyntaxError(f"{name} must be 32-bit aligned")

    @property
    def iterations(self) -> int:
        return (self.h_out * self.w_out * self.kout_tiles
                * self.fs * self.fs * self.kin_tiles)


def ucode_registers(g: JobGeometry) -> np.ndarray:
    """The 16 read-only register values for one job (uint32)."""
    import numpy as np
    vals = {
        "tp_square": g.tp * g.tp,
        "tp": g.tp,
        "nif": g.kin_tiles,
        "nof": g.kout_tiles,
        "w_X_nif": g.x_row_stride,
        "ow_X_nof": g.y_row_stride,
        "zero": 0,
        "fs": g.fs,
        "h_out": g.h_out,
        "w_out": g.w_out,
        "pix_adv": g.x_pixel_stride - (g.kin_tiles - 1) * g.tp,
        "opix_adv": g.y_pixel_stride - (g.kout_tiles - 1) * g.tp,
        "kout_rew": g.band_step - (g.fs - 1) * g.x_row_stride,
        "j_step": (g.x_pixel_stride - (g.fs - 1) * g.x_row_stride
                   - (g.kout_tiles - 1) * g.band_step),
        "i_step": (g.x_row_stride - (g.w_out - 1) * g.x_pixel_stride
                   - (g.fs - 1) * g.x_row_stride
                   - (g.kout_tiles - 1) * g.band_step),
        "orow_adv": (g.y_row_stride - (g.w_out - 1) * g.y_pixel_stride
                     - (g.kout_tiles - 1) * g.tp),
    }
    out = np.zeros(N_RO, dtype=np.uint32)
    for name, idx in RO_NAMES.items():
        out[idx - N_RW] = np.uint32(vals[name] & MASK32)
    return out


def reference_range_regs() -> list[int]:
    """Loop trip-count bindings of the reference walk, innermost first:
    input tiles, filter column, filter row, output tiles, output column,
    output row."""
    n = RO_NAMES
    return [n["nif"], n["fs"], n["fs"], n["nof"], n["w_out"], n["h_out"]]


def reference_program() -> MicrocodeProgram:
    """The pointer walk used for every convolution job.

    Weights are streamed in flat (k_out, fi, fj, k_in) blocks of TP*TP
    bits and rewound to zero at each new output pixel; features walk
    the receptive field via x, with x_major holding the current row
    anchor; outputs advance one TP vector per output tile.
    """
    A, M = Op.ADD, Op.MV
    r = REG_NAMES
    ins = [
        # loop0: next input tile (innermost)
        MicroInstruction(A, r["W"], r["tp_square"], "w_next_block"),
        MicroInstruction(A, r["x"], r["tp"], "x_next_tile"),
        # loop1: next filter column
        MicroInstruction(A, r["W"], r["tp_square"], "w_next_col"),
        MicroInstruction(A, r["x"], r["pix_adv"], "x_next_pixel"),
        # loop2: next filter row
        MicroInstruction(A, r["W"], r["tp_square"], "w_next_row"),
        MicroInstruction(A, r["x_major"], r["w_X_nif"], "anchor_down"),
        MicroInstruction(M, r["x"], r["x_major"], "x_from_anchor_row"),
        # loop3: next output tile
        MicroInstruction(A, r["W"], r["tp_square"], "w_next_tile"),
        MicroInstruction(A, r["y"], r["tp"], "y_next_tile"),
        MicroInstruction(A, r["x_major"], r["kout_rew"], "anchor_rewind"),
        MicroInstruction(M, r["x"], r["x_major"], "x_from_anchor_tile"),
        # loop4: next output column
        MicroInstruction(M, r["W"], r["zero"], "w_rewind_col"),
        MicroInstruction(A, r["y"], r["opix_adv"], "y_next_pixel"),
        MicroInstruction(A, r["x_major"], r["j_step"], "anchor_next_col"),
        MicroInstruction(M, r["x"], r["x_major"], "x_from_anchor_col"),
        # loop5: next output row (outermost)
        MicroInstruction(M, r["W"], r["zero"], "w_rewind_row"),
        MicroInstruction(A, r["y"], r["orow_adv"], "y_next_row"),
        MicroInstruction(A, r["x_major"], r["i_step"], "anchor_next_row"),
        MicroInstruction(M, r["x"], r["x_major"], "x_from_anchor_i"),
    ]
    rr = reference_range_regs()
    loops = [
        LoopSpec(0, 2, rr[0]),
        LoopSpec(2, 2, rr[1]),
        LoopSpec(4, 3, rr[2]),
        LoopSpec(7, 4, rr[3]),
        LoopSpec(11, 4, rr[4]),
        LoopSpec(15, 4, rr[5]),
    ]
    return MicrocodeProgram(ins, loops)


# ---------------------------------------------------------------------------
# Interpreter


class UcodeState:
    """Steps a program against one job's register values.

    Emits one (W, x, y) bit-offset triple per loop-nest state; the
    all-zero initial state is the first emission. cycles counts
    executed instructions (one per cycle).
    """

    def __init__(self, prog: MicrocodeProgram, ro_values: np.ndarray):
        import numpy as np
        ro = np.asarray(ro_values, dtype=np.uint32)
        if ro.shape != (N_RO,):
            raise UcodeSyntaxError(f"need {N_RO} read-only values, "
                                   f"got shape {ro.shape}")
        self.prog = prog
        self.ro = [int(v) for v in ro]
        self.rw = [0] * N_RW
        self.ranges = [self.ro[lp.range_reg - N_RW] for lp in prog.loops]
        self.counters = [0] * len(prog.loops)
        self.cycles = 0
        self._dead = any(r == 0 for r in self.ranges)
        self._emitted_first = False

    def offsets(self) -> tuple[int, int, int]:
        return self.rw[0], self.rw[1], self.rw[2]

    def _read(self, idx: int) -> int:
        return self.rw[idx] if idx < N_RW else self.ro[idx - N_RW]

    def _exec(self, ins: MicroInstruction) -> None:
        v = self._read(ins.src)
        if ins.op is Op.ADD:
            self.rw[ins.dst] = (self.rw[ins.dst] + v) & MASK32
        else:
            self.rw[ins.dst] = v & MASK32
        self.cycles += 1

    def step(self) -> tuple[int, int, int] | None:
        """Advance to the next loop-nest state; None when exhausted."""
        if self._dead:
            return None
        if not self._emitted_first:
            self._emitted_first = True
            return self.offsets()
        lvl = None
        for i in range(len(self.counters)):
            if self.counters[i] + 1 < self.ranges[i]:
                lvl = i
                break
        if lvl is None:
            return None
        self.counters[lvl] += 1
        for i in range(lvl):
            self.counters[i] = 0
        lp = self.prog.loops[lvl]
        for k in range(lp.base, lp.base + lp.count):
            self._exec(self.prog.instructions[k])
        return self.offsets()

    def run(self) -> list[tuple[int, int, int]]:
        out = []
        while (t := self.step()) is not None:
            out.append(t)
        return out


def offset_sequence(prog: MicrocodeProgram,
                    geom: JobGeometry) -> list[tuple[int, int, int]]:
    """All (W, x, y) bit offsets of one job, in issue order."""
    return UcodeState(prog, ucode_registers(geom)).run()


# ---------------------------------------------------------------------------
# Vectorised walk


def _window_map(prog: MicrocodeProgram, lp: LoopSpec,
                ro: np.ndarray) -> np.ndarray:
    """The affine map one firing of a loop applies to the pointer
    registers, as a 5x5 matrix on [W, x, y, x_major, 1] (mod 2^64,
    hence exact mod 2^32)."""
    import numpy as np
    m = np.eye(N_RW + 1, dtype=np.uint64)
    for ins in prog.instructions[lp.base:lp.base + lp.count]:
        if ins.src < N_RW:
            src = m[ins.src].copy()
        else:
            src = np.zeros(N_RW + 1, dtype=np.uint64)
            src[N_RW] = ro[ins.src - N_RW]
        m[ins.dst] = m[ins.dst] + src if ins.op is Op.ADD else src
    return m


def _powers(q: np.ndarray, n: int) -> np.ndarray:
    """q^0 .. q^(n-1), stacked, by doubling."""
    import numpy as np
    out = np.empty((n,) + q.shape, dtype=np.uint64)
    out[0] = np.eye(len(q), dtype=np.uint64)
    have, step = 1, q
    while have < n:
        take = min(have, n - have)
        out[have:have + take] = step @ out[:take]
        have += take
        step = step @ step
    return out


def walk_offsets(prog: MicrocodeProgram, ro_values: np.ndarray) -> np.ndarray:
    """Every (W, x, y) offset UcodeState(prog, ro_values).run() emits,
    as an (n, 3) int64 array, built without stepping.

    A firing of loop k applies its window's affine map F_k. A whole run
    of loops 0..k-1 started in state u ends in P_k(u), so successive
    iterations of loop k start in u, Q_k(u), Q_k^2(u), ... with
    Q_k = F_k P_k, and P_{k+1} = P_k Q_k^(r_k - 1). The stream is then
    expanded from the outermost loop in: each start state becomes the
    r_k start states of the next loop in. A loop of one trip never
    fires and contributes only the identity (Q_k^0 = I, P_{k+1} = P_k),
    so it is skipped.
    """
    import numpy as np
    ro = np.asarray(ro_values, dtype=np.uint32)
    if ro.shape != (N_RO,):
        raise UcodeSyntaxError(f"need {N_RO} read-only values, "
                               f"got shape {ro.shape}")
    ranges = [int(ro[lp.range_reg - N_RW]) for lp in prog.loops]
    if 0 in ranges:
        return np.zeros((0, 3), dtype=np.int64)
    p = np.eye(N_RW + 1, dtype=np.uint64)
    qpow = []     # per loop of r_k > 1 trips, Q_k^0 .. Q_k^(r_k - 1)
    for lp, r in zip(prog.loops, ranges):
        if r == 1:
            continue
        qpow.append(_powers(_window_map(prog, lp, ro) @ p, r))
        p = p @ qpow[-1][-1]
    states = np.zeros((N_RW + 1, 1), dtype=np.uint64)
    states[N_RW] = 1
    for pw in reversed(qpow):
        # (r, 5, 5) @ (5, n) -> (r, 5, n): iteration m of every outer state
        states = (pw @ states).transpose(1, 2, 0).reshape(N_RW + 1, -1)
    return (states[:3].T & np.uint64(MASK32)).astype(np.int64)
