import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from xnesim import cli, runner
from xnesim.bintensor import BinaryTensor
from xnesim.analytic import (_MODE_KEYS, _SCALAR_KEYS, DEFAULT_COEFFICIENTS,
                             load_coefficients)
from xnesim.cli import build_parser, main
from xnesim.errors import UcodeSyntaxError
from xnesim.microcode import (REG_NAMES, RO_NAMES, RW_NAMES, parse_program,
                              program_to_yaml, reference_program)

REF_HEX = reference_program().assemble().hex()
README = Path(__file__).resolve().parent.parent / "README.md"


def _commands(text: str) -> list[str]:
    return [l.strip() for l in text.splitlines()
            if l.strip().startswith("xnesim ")]


README_CMDS = [c for block in re.findall(r"^```[^\n]*\n(.*?)^```",
                                         README.read_text(), re.M | re.S)
               for c in _commands(block)]
DOC_CMDS = _commands(cli.__doc__)


@pytest.mark.parametrize("line", sorted(set(README_CMDS + DOC_CMDS)))
def test_documented_command_parses(line):
    # parse only, run nothing: a removed or renamed flag fails here
    # instead of leaving README.md or the cli docstring stale
    build_parser().parse_args(shlex.split(line)[1:])


def test_documented_commands_found():
    # an empty list above would pass vacuously
    assert len(README_CMDS) >= 8 and len(DOC_CMDS) >= 6
    # the scripts/ directory is gone; README must not point into it
    assert "python3 scripts/" not in README.read_text()


def test_ucode_ref_and_asm_roundtrip(tmp_path, capsys):
    src = tmp_path / "ref.yaml"
    assert main(["ucode", "ref", "-o", str(src)]) == 0
    out = tmp_path / "ref.bin"
    assert main(["ucode", "asm", str(src), "-o", str(out), "--hex"]) == 0
    assert capsys.readouterr().out.strip() == REF_HEX
    assert out.read_bytes() == bytes.fromhex(REF_HEX)
    assert len(out.read_bytes()) == 28


def test_ucode_dis_yaml_reassembles(tmp_path, capsys):
    blob = tmp_path / "p.bin"
    blob.write_bytes(bytes.fromhex(REF_HEX))
    assert main(["ucode", "dis", str(blob)]) == 0
    y = tmp_path / "rt.yaml"
    y.write_text(capsys.readouterr().out)
    assert main(["ucode", "asm", str(y)]) == 0
    assert capsys.readouterr().out.strip() == REF_HEX


def test_ucode_dis_bad_stream(tmp_path, capsys):
    blob = tmp_path / "bad.bin"
    blob.write_bytes(b"\x00" * 5)
    assert main(["ucode", "dis", str(blob)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {blob}: bitstream is 5 bytes, expected 28\n"


def test_run_layer_ok(capsys):
    rc = main(["run", "layer", "--nif", "40", "--nof", "20", "--fs", "3",
               "--h", "3", "--w", "3", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mismatches vs reference: 0" in out


def test_run_net_text_and_csv(capsys):
    assert main(["run", "net", "mvgg-f", "--mode", "scm-0v4"]) == 0
    text = capsys.readouterr().out
    assert "network mvgg-f" in text and "conv6" in text
    assert main(["run", "net", "mvgg-f", "--mode", "scm-0v4",
                 "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert csv.startswith("layer,ops,param_bits")


def test_run_net_capacity_exit(capsys):
    assert main(["run", "net", "mvgg-2", "--mode", "scm-0v4"]) == 4
    assert "error" in capsys.readouterr().err


def test_run_layer_too_big_for_l1(capsys):
    assert main(["run", "layer", "--nif", "32", "--nof", "32",
                 "--h", "200", "--w", "200"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_layer_too_big_to_draw(capsys):
    # rejected in closed form before its 2**64-pixel input is drawn
    assert main(["run", "layer", "--nif", "1", "--nof", "1", "--fs", "1",
                 "--h", "4294967296", "--w", "4294967296"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_layer_stream_too_big_draws_nothing(capsys, monkeypatch):
    # 4096 x 4096 weights fit l1's activations but not the sram stream:
    # rejected in closed form before any weight is drawn
    def no_draw(*_):
        raise AssertionError("drew layer data")

    monkeypatch.setattr(runner, "random_layer_data", no_draw)
    assert main(["run", "layer", "--nif", "4096", "--nof", "4096",
                 "--fs", "1", "--h", "1", "--w", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sram" in err


def test_run_net_unknown_network(capsys):
    assert main(["run", "net", "lenet", "--mode", "scm-0v4"]) == 3


def test_run_net_bad_mvgg_tag(capsys):
    assert main(["run", "net", "mvgg-x"]) == 3
    assert capsys.readouterr().err == "error: unknown network 'mvgg-x'\n"


def test_run_net_bad_tp_is_an_input_error(capsys):
    # an invalid --tp is named before the network's fit is checked
    assert main(["run", "net", "resnet18", "--tp", "100"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: tp must be one of") and err.count("\n") == 1


def test_run_net_unknown_mode(capsys):
    assert main(["run", "net", "mvgg-f", "--mode", "nvm-9v9"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unknown mode 'nvm-9v9'; have [")
    assert err.count("\n") == 1 and err.count("error:") == 1


def test_internal_error_is_not_an_input_error(monkeypatch):
    # only XneError and OSError are input errors; a bug shows as itself
    def broken(*args, **kwargs):
        raise ValueError("shape bug")
    monkeypatch.setattr(cli, "run_network", broken)
    with pytest.raises(ValueError, match="shape bug"):
        main(["run", "net", "mvgg-f"])


def test_report_skips_unfit_modes(capsys):
    assert main(["report", "mvgg-2"]) == 0
    out = capsys.readouterr().out
    assert "scm-0v4" in out and "hyperram" in out
    scm_line = next(l for l in out.splitlines() if l.startswith("scm-0v4"))
    assert "-" in scm_line     # rejected with a reason, not a number


def test_report_prints_each_network_in_order(capsys):
    assert main(["report", "mvgg-f"]) == 0
    f = capsys.readouterr().out
    assert main(["report", "mvgg-4"]) == 0
    four = capsys.readouterr().out
    assert main(["report", "mvgg-f", "mvgg-4"]) == 0
    assert capsys.readouterr().out == f + four


@pytest.mark.parametrize("argv", [
    ["mvgg-2", "--tp", "100"],
    ["mvgg-2", "--modes", "bogus"],
    ["mvgg-2", "lenet"],
], ids=["tp", "mode", "network"])
def test_report_rejects_input_before_printing(argv, capsys):
    assert main(["report", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_cli(capsys):
    assert main(["verify", "--layers", "4", "--seed", "8"]) == 0
    assert "0 with mismatches" in capsys.readouterr().out


@pytest.mark.parametrize("layers", ["0", "-1"])
def test_verify_rejects_empty_sweep(layers, capsys):
    assert main(["verify", "--layers", layers]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert layers in err


@pytest.mark.parametrize("argv", [
    ["run", "layer", "--nif", "8", "--nof", "8", "--h", "1", "--w", "1"],
    ["verify", "--layers", "1"],
], ids=["run-layer", "verify"])
def test_negative_seed_is_an_error(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: --seed must be >= 0, got -1\n"


def test_verify_error_names_the_layer(capsys):
    # layer 0 at seed 0 is 79->11 fs=5: its padded weight stream does
    # not fit the sram region at tp 512
    assert main(["verify", "--layers", "1", "--tp", "512"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: layer 0: LayerSpec(nif=79, nof=11, fs=5")
    assert "--seed 0 --tp 512: weight stream" in err
    assert err.count("\n") == 1


_READERS = {"ucode": [["ucode", "asm"]],
            "config": [["report", "mvgg-2", "--config"],
                       ["run", "net", "mvgg-2", "--config"]]}
_DEEP = b"[" * 3000 + b"]" * 3000
# (the commands that read the file, its bytes or None for no file, the
# start of the message after the path); bytes that are not UTF-8 once
# ended in a UnicodeDecodeError traceback, malformed YAML in a six-line
# error from ucode asm, and deep nesting in a RecursionError traceback
INPUT_FILE_ERRORS = {
    "ucode-utf16-bom": ("ucode", b"\xff\xfe\x00code: []\n",
                        "program source must be a mapping, got str"),
    "config-utf16-bom": ("config", b"\xff\xfe\x00code: []\n",
                         "the document must be a mapping, got str"),
    "ucode-not-utf8": ("ucode", b"\xc3\x28",
                       "not valid YAML: unacceptable character #x"),
    "config-not-utf8": ("config", b"\xc3\x28",
                        "not valid YAML: unacceptable character #x"),
    "ucode-malformed": ("ucode", b"code: [1",
                        "not valid YAML: while parsing a flow sequence "),
    "config-malformed": ("config", b"a: [1",
                         "not valid YAML: while parsing a flow sequence "),
    "ucode-deep": ("ucode", b"code: [{op: " + _DEEP + b", dst: W, src: tp}]",
                   "nested too deeply"),
    "config-deep": ("config", b"leakage_mw: " + _DEEP, "nested too deeply"),
    "ucode-missing": ("ucode", None, "No such file or directory"),
    "config-missing": ("config", None, "No such file or directory"),
}


@pytest.mark.parametrize("reader, data, problem", INPUT_FILE_ERRORS.values(),
                         ids=INPUT_FILE_ERRORS)
def test_input_file_error_is_one_line_naming_the_file(reader, data, problem,
                                                      tmp_path, capsys):
    path = tmp_path / "input"
    if data is not None:
        path.write_bytes(data)
    for argv in _READERS[reader]:
        assert main(argv + [str(path)]) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: {problem}"), err
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("d, problem", [
    ("16", "band width 16 outside [1, 8]"),
    ("3", "band width 3 must divide nif=8"),
], ids=["wider-than-nif", "not-dividing-nif"])
def test_run_layer_rejects_band_width(d, problem, capsys):
    assert main(["run", "layer", "--nif", "8", "--nof", "8", "--d", d]) == 3
    assert capsys.readouterr().err == f"error: {problem}\n"


def test_ucode_asm_bad_field(tmp_path, capsys):
    src = tmp_path / "p.yaml"
    src.write_text("code: [{op: add, dst: W}]\n")
    assert main(["ucode", "asm", str(src)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {src}: code[0] needs src\n"


def test_verify_failure_prints_replay(monkeypatch, capsys):
    real = runner.layer_golden

    def inverted(x, w, spec, thr):
        return BinaryTensor.from_bits(1 - real(x, w, spec, thr).to_bits())
    monkeypatch.setattr(runner, "layer_golden", inverted)
    assert main(["verify", "--layers", "3", "--seed", "8", "--tp", "64"]) == 5
    out = capsys.readouterr().out
    assert "3 with mismatches" in out
    assert "layer 2: LayerSpec(nif=" in out and "h_out=" in out
    assert "replay: xnesim verify --layers 3 --seed 8 --tp 64" in out


def test_config_override(tmp_path, capsys):
    cfgf = tmp_path / "c.yaml"
    cfgf.write_text("hyperram_pj_per_bit: 100.0\n")
    assert main(["run", "net", "mvgg-f", "--mode", "hyperram",
                 "--format", "csv", "-o", str(tmp_path / "a.csv")]) == 0
    assert main(["run", "net", "mvgg-f", "--mode", "hyperram",
                 "--config", str(cfgf), "--format", "csv",
                 "-o", str(tmp_path / "b.csv")]) == 0
    a = (tmp_path / "a.csv").read_text()
    b = (tmp_path / "b.csv").read_text()
    assert a != b
    # dma energy scales with the per-bit coefficient
    tot_a = sum(float(l.split(",")[9]) for l in a.splitlines()[1:])
    tot_b = sum(float(l.split(",")[9]) for l in b.splitlines()[1:])
    assert tot_b == pytest.approx(tot_a * 100.0 / 28.6, rel=1e-6)


def test_config_null_value_is_an_error(tmp_path, capsys):
    cfgf = tmp_path / "c.yaml"
    cfgf.write_text("leakage_mw:\n")
    assert main(["run", "net", "mvgg-f", "--config", str(cfgf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "leakage_mw" in err


# a non-finite coefficient, one whose clock or rate in Hz or bits/s
# overflows, or one so small or large that a printed total (time in us,
# ops per second, energy in uJ) is not finite names its key; (yaml,
# key, mode the key reaches)
NON_FINITE = {
    "freq-inf": ("modes: {sram-0v6: {freq_mhz: .inf}}", "freq_mhz",
                 "sram-0v6"),
    "freq-neg-inf": ("modes: {sram-0v6: {freq_mhz: -.inf}}", "freq_mhz",
                     "sram-0v6"),
    "freq-nan": ("modes: {sram-0v6: {freq_mhz: .nan}}", "freq_mhz",
                 "sram-0v6"),
    "freq-hz-overflows": ("modes: {sram-0v6: {freq_mhz: 1e308}}",
                          "freq_mhz", "sram-0v6"),
    "hyperram-rate-inf": ("hyperram_bits_per_s: .inf", "hyperram_bits_per_s",
                          "hyperram"),
    "marshal-rate-inf": ("marshal_bits_per_cycle: .inf",
                         "marshal_bits_per_cycle", "marshal-0v6"),
    "marshal-bits-per-s-overflows": ("marshal_bits_per_cycle: 1e300",
                                     "marshal_bits_per_cycle",
                                     "marshal-0v6"),
    "freq-tiny": ("modes: {sram-0v6: {freq_mhz: 1e-320}}", "freq_mhz",
                  "sram-0v6"),
    "hyperram-rate-tiny": ("hyperram_bits_per_s: 1e-320",
                           "hyperram_bits_per_s", "hyperram"),
    "marshal-rate-tiny": ("marshal_bits_per_cycle: 1e-320",
                          "marshal_bits_per_cycle", "marshal-0v6"),
    "freq-total-time-overflows": ("modes: {sram-0v6: {freq_mhz: 1e-306}}",
                                  "freq_mhz", "sram-0v6"),
    "freq-ops-per-s-overflows": ("modes: {sram-0v6: {freq_mhz: 1.7e302}}",
                                 "freq_mhz", "sram-0v6"),
    "engine-energy-overflows": (
        "modes: {sram-0v6: {engine_fj_per_op: 1e308}}", "engine_fj_per_op",
        "sram-0v6"),
    "local-energy-overflows": (
        "modes: {sram-0v6: {local_fj_per_op: 1e308}}", "local_fj_per_op",
        "sram-0v6"),
    "leakage-overflows": ("leakage_mw: 1e308", "leakage_mw", "sram-0v6"),
    "marshal-energy-overflows": ("marshal_pj_per_bit: 1e308",
                                 "marshal_pj_per_bit", "marshal-0v6"),
    "hyperram-energy-overflows": ("hyperram_pj_per_bit: 1e308",
                                  "hyperram_pj_per_bit", "hyperram"),
}


@pytest.mark.parametrize("text, key, mode", NON_FINITE.values(),
                         ids=NON_FINITE)
def test_non_finite_coefficient_is_an_error(text, key, mode, tmp_path,
                                            capsys):
    cfgf = tmp_path / "c.yaml"
    cfgf.write_text(text + "\n")
    for argv in (["report", "mvgg-2", "--modes", mode],
                 ["run", "net", "mvgg-2", "--mode", mode]):
        assert main(argv + ["--config", str(cfgf)]) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and key in err, err




# --- the error contract, fuzzed ------------------------------------------

# YAML values the contract must meet: non-finite, huge finite (a
# 1.7e302 clock and 1e308 energies pass the load), tiny, falsy values
# of every kind, ints too large for a float, and any float or int
_BIG = "1" + "0" * 400
_FALSY = st.sampled_from(["0", "-0.0", "false", "''", "[]", "{}", "null"])
_YAML_VALUE = st.one_of(
    st.sampled_from([".inf", "-.inf", ".nan", "1e308", "1.7e302", "1e-306",
                     "1e-320"]), _FALSY,
    (st.integers(2**1024, 2**1400) | st.integers(-2**1400, -2**1024)).map(
        str),
    st.floats().map(repr) | st.integers().map(str))
# where a mapping or a list belongs, falsy values of the wrong kind
# are drawn more often
_CONTAINER = _FALSY | _YAML_VALUE
_TP = st.sampled_from(["32", "64", "128", "256", "512"]) | st.sampled_from(
    ["0", "-1", "33", _BIG])
_MODES = [*DEFAULT_COEFFICIENTS.modes, "new-0v7"]
_COEFFICIENT_SLOTS = st.sets(st.sampled_from(
    ["document", "modes", "mode", *_SCALAR_KEYS, *_MODE_KEYS]),
    min_size=1, max_size=2)
_REGION_VALUE = _YAML_VALUE | st.sampled_from(
    ["scm", "sram_marshal", "hyperram"])
_CODE = st.lists(st.tuples(st.sampled_from(["add", "mv"]),
                           st.sampled_from([*RW_NAMES]),
                           st.sampled_from([*REG_NAMES])), max_size=8)
_LOOPS = st.lists(st.tuples(st.sampled_from([*RO_NAMES]), st.integers(1, 3)),
                  max_size=3)
_UCODE_SLOTS = st.sets(st.sampled_from(
    ["code", "loops", "mnemonics", "row", "stride"]), max_size=2)
_ROW_KEY = st.sampled_from(["op", "dst", "src"])
_BAD_CELL = _YAML_VALUE | st.sampled_from(["sub", "20", "nothere"])
_DIM = st.integers(1, 40).map(str) | st.sampled_from(
    ["0", "-1", "2147483648", _BIG, "x"])
_PIXELS = st.integers(1, 3).map(str) | st.sampled_from(["0", _BIG])


def _yaml(value) -> str:
    """value in YAML's flow style: dicts and lists of YAML text."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_yaml(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_yaml, value)) + "]"
    return str(value)


def _document(doc: dict) -> bytes:
    return "".join(f"{k}: {_yaml(v)}\n" for k, v in doc.items()).encode()


def _wrong_kind(value, empty: str, optional: bool) -> bool:
    """Whether value, YAML text from _YAML_VALUE where a mapping ({})
    or a list ([]) belongs, is of another kind. A null is the empty
    value only where the field is optional."""
    return isinstance(value, str) and value not in (
        {empty, "null"} if optional else {empty})


@st.composite
def _coefficient_yaml(draw) -> tuple[bytes, bool]:
    """A coefficient document that overrides one mode with valid
    fields, then holds YAML values in one or two slots: the document,
    `modes`, the mode, a scalar or a field of the mode; and whether a
    value of the wrong kind stands where a mapping belongs."""
    slots = draw(_COEFFICIENT_SLOTS)
    if "document" in slots:
        value = draw(_CONTAINER | st.just(""))
        return value.encode(), _wrong_kind(value or "null", "{}", True)
    name = draw(st.sampled_from(_MODES))
    mode = {"engine_fj_per_op": 10.0, "local_fj_per_op": 20.0,
            "freq_mhz": 100.0, "weights_region": "sram"}
    doc = {"modes": {name: mode}}
    for slot in sorted(slots):
        if slot in ("modes", "mode"):
            value = draw(_CONTAINER)
            if slot == "modes":
                doc["modes"] = value
            elif isinstance(doc["modes"], dict):
                doc["modes"][name] = value
        elif slot in _MODE_KEYS:
            mode[slot] = draw(_REGION_VALUE if slot == "weights_region"
                              else _YAML_VALUE)
        else:
            doc[slot] = draw(_YAML_VALUE)
    modes = doc["modes"]
    return _document(doc), (_wrong_kind(modes, "{}", True) or (
        isinstance(modes, dict) and _wrong_kind(modes[name], "{}", False)))


@st.composite
def _ucode_yaml(draw) -> tuple[bytes, bool]:
    """A program source: code rows i0, i1, ... over register names,
    loops over runs of those names, and mnemonics. Then up to two of
    code, loops, mnemonics, one row's op, dst or src, and the mnemonic's
    value are YAML values; and whether code, loops or mnemonics is of
    the wrong kind."""
    code = [{"name": f"i{i}", "op": op, "dst": dst, "src": src}
            for i, (op, dst, src) in enumerate(draw(_CODE))]
    loops, start = [], 0        # innermost first, on consecutive runs
    for r, n in draw(_LOOPS):
        if start + n > len(code):
            break
        loops.append({"range": r, "instructions": [
            f"i{k}" for k in range(start, start + n)]})
        start += n
    stride = {"stride": 8}
    doc = {"code": code, "loops": loops, "mnemonics": stride}
    for where in draw(_UCODE_SLOTS):
        if where in doc:
            doc[where] = draw(_CONTAINER)
        elif where == "stride":
            stride["stride"] = draw(_YAML_VALUE)
        elif code:
            row = code[draw(st.integers(0, 7)) % len(code)]
            row[draw(_ROW_KEY)] = draw(_BAD_CELL)
    return _document(doc), (_wrong_kind(doc["code"], "[]", False)
                            or _wrong_kind(doc["loops"], "[]", True)
                            or _wrong_kind(doc["mnemonics"], "{}", True))


_NOT_UTF8 = st.sampled_from([b"\xc3\x28", b"\xff", b"\x80", b"\xe2\x82",
                             b"\xed\xa0\x80"])


@st.composite
def _raw(draw, documents) -> tuple[bytes, bool]:
    """A document of *documents* cut short, with a bracket or quote
    opened, or with bytes that are not UTF-8 spliced in; and whether
    it must be refused, which only the last must."""
    data, _ = draw(documents)
    how = draw(st.sampled_from(["cut", "open", "not-utf8"]))
    at = draw(st.integers(0, len(data)))
    if how == "cut":
        return data[:at], False
    if how == "open":
        opened = draw(st.sampled_from([b"[", b"{", b"'"]))
        return data[:at] + opened + data[at:], False
    return data[:at] + draw(_NOT_UTF8) + data[at:], True


_KIND = st.sampled_from(["coefficients", "microcode"] * 2
                        + ["bitstream", "geometry", "coefficient bytes",
                           "microcode bytes"])
_DIS_PATCHES = st.lists(st.tuples(st.integers(0, 27), st.integers(0, 255)))


@st.composite
def _cli_runs(draw):
    """(argv, the bytes of the file argv names as FILE or None, whether
    that file must be refused: its bytes are not UTF-8, or a value of
    the wrong kind stands where a mapping or a list belongs)."""
    kind = draw(_KIND)
    if kind.startswith("coefficient"):
        net = draw(st.sampled_from(["mvgg-2", "resnet34", "mvgg-f"]))
        mode = draw(st.sampled_from(_MODES))
        argv = draw(st.sampled_from([
            ["report", net], ["report", net, "--modes", mode],
            ["run", "net", net, "--mode", mode]]))
        documents = _coefficient_yaml()
        return (argv + ["--tp", draw(_TP), "--config", "FILE"],
                *draw(_raw(documents) if kind.endswith("bytes")
                      else documents))
    if kind.startswith("microcode"):
        documents = _ucode_yaml()
        return ["ucode", "asm", "FILE"], *draw(
            _raw(documents) if kind.endswith("bytes") else documents)
    if kind == "bitstream":
        blob = bytearray(bytes.fromhex(REF_HEX))
        for at, value in draw(_DIS_PATCHES):
            blob[at] = value
        return ["ucode", "dis", "FILE"], bytes(blob), False
    d = draw(st.none() | _DIM)
    return (["run", "layer", "--nif", draw(_DIM), "--nof", draw(_DIM),
             "--fs", draw(st.sampled_from(["1", "3", "0", _BIG])),
             "--h", draw(_PIXELS), "--w", draw(_PIXELS)]
            + ([] if d is None else ["--d", d])
            + ["--tp", draw(_TP),
               "--seed", draw(st.sampled_from(["0", "7", "-1", _BIG]))],
            None, False)


_PARSER = build_parser()


def _main(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr; argparse's usage
    errors exit 2. Every call shares one parser, as building one takes
    longer than most runs."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(cli, "build_parser", lambda: _PARSER),
          redirect_stdout(out), redirect_stderr(err)):
        try:
            rc = main(argv)
        except SystemExit as ex:
            rc = ex.code
    return rc, out.getvalue(), err.getvalue()


@given(_cli_runs())
@settings(max_examples=130, deadline=None)
def test_cli_meets_the_error_contract(tmp_path_factory, run):
    # every run exits 0, 2, 3, 4 or 5, and 3 with an error that names
    # the file where the file must be refused; a failed run prints
    # exactly one error: line, a failed ucode command one that names its
    # file, and a failed report nothing on stdout. Bytes that ucode asm
    # gives disassemble, and bytes that ucode dis lists assemble from
    # the listing to the same bytes
    argv, data, refused = run
    path = tmp_path_factory.getbasetemp() / "cli-fuzz-input"
    if data is not None:
        path.write_bytes(data)
    argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = _main(argv)
    assert rc in (0, 2, 3, 4, 5), (argv, rc, err)
    assert rc == 3 or not refused, (argv, rc, data)
    if refused or (rc == 3 and argv[0] == "ucode"):
        assert err.startswith(f"error: {path}: "), (argv, err)
    if rc == 0:
        assert err == "", (argv, err)
    elif rc == 2:       # argparse: usage, then one "prog: error:" line
        assert sum("error:" in l for l in err.splitlines()) == 1, err
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert argv[0] != "report" or out == "", (argv, out)
    if rc == 0 and argv[:2] == ["ucode", "asm"]:
        data = bytes.fromhex(out.strip())
        path.write_bytes(data)
        rc, out, err = _main(["ucode", "dis", str(path)])
        assert rc == 0, err
    if rc == 0 and argv[0] == "ucode":
        path.write_text(out)
        assert _main(["ucode", "asm", str(path)]) == (0, data.hex() + "\n",
                                                      "")


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@given(_coefficient_yaml() | _ucode_yaml())
@settings(max_examples=100, deadline=None)
def test_libyaml_loads_each_drawn_document_as_the_pure_loader(drawn):
    # repr tells nan, -0.0 and 1 from 1.0 apart, where == does not
    data, _ = drawn
    assert (repr(yaml.load(data, Loader=yaml.CSafeLoader))
            == repr(yaml.load(data, Loader=yaml.SafeLoader)))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@given(_ucode_yaml())
@settings(max_examples=50, deadline=None)
def test_libyaml_lists_each_drawn_program_as_the_pure_dumper(drawn):
    try:
        prog = parse_program(drawn[0])
    except UcodeSyntaxError:
        return
    listing = program_to_yaml(prog)
    with mock.patch.object(yaml, "CSafeDumper", yaml.SafeDumper):
        assert program_to_yaml(prog) == listing


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
def test_the_pure_loader_reads_the_same_values(tmp_path, monkeypatch):
    # parse_yaml reads with libyaml when PyYAML has it, else with
    # PyYAML's own loader, to the same values and the same errors, and
    # program_to_yaml writes the same text with either dumper
    config = tmp_path / "c.yaml"
    config.write_text("leakage_mw: 1\nmodes: {new-0v7: {engine_fj_per_op:"
                      " 1, local_fj_per_op: 2, freq_mhz: 3,"
                      " weights_region: scm}}\n")

    def read():
        listing = program_to_yaml(reference_program())
        try:
            parse_program(b"code: [1")
        except UcodeSyntaxError as ex:
            malformed = str(ex).split(" in ")[0]
        return (listing, parse_program(listing.encode()),
                load_coefficients(str(config)), malformed)

    loaders = []

    class Spy(yaml.CSafeLoader):
        def __init__(self, stream):
            loaders.append(type(self))
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Spy)
    with_libyaml = read()
    assert loaders == [Spy] * 3
    monkeypatch.delattr(yaml, "CSafeLoader")
    monkeypatch.delattr(yaml, "CSafeDumper")
    assert read() == with_libyaml
    assert with_libyaml[1] == reference_program()
    assert with_libyaml[2].mode("new-0v7").freq_mhz == 3.0
    assert with_libyaml[3] == "not valid YAML: while parsing a flow sequence"
