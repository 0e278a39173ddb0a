"""Command line front end.

    xnesim ucode asm program.yaml -o program.bin
    xnesim ucode dis program.bin
    xnesim run layer --nif 128 --nof 128 --fs 3 --h 16 --w 16
    xnesim run net resnet18 --mode hyperram
    xnesim report mvgg-2
    xnesim verify --layers 100 --seed 1

`ucode ref` and `ucode dis` print YAML that `ucode asm` reads back.
Energy coefficients are the `CoefficientSet` defaults unless --config
names a YAML override. `report` prints one block per network, and
nothing at all if any network, mode or tp is invalid.

Exit codes: 0 ok, 2 usage, 3 parse/decode or other input error,
4 does not fit (capacity, planning or memory-region error),
5 verification mismatch.

`run net`, `report` and `ucode` import no numpy; `run layer` and
`verify` import the functional modules when they run.
"""

from __future__ import annotations

import argparse
import sys

from .analytic import (DEFAULT_COEFFICIENTS, CoefficientSet, LayerSpec,
                       get_network, load_coefficients, run_network)
from .errors import (CapacityError, PlanError, RegionError, UcodeSyntaxError,
                     XneError, read_file)

EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_VERIFY = 5


def _coeffs(args) -> CoefficientSet:
    return (load_coefficients(args.config) if args.config
            else DEFAULT_COEFFICIENTS)


def _seed(args) -> int:
    """--seed, which numpy's generators need non-negative."""
    if args.seed < 0:
        raise XneError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _emit(args, text: str) -> None:
    """Write *text* to -o if given, else print it."""
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_ucode_asm(args) -> int:
    from .microcode import parse_program

    blob = read_file(args.input, parse_program, UcodeSyntaxError).assemble()
    if args.output:
        with open(args.output, "wb") as f:
            f.write(blob)
    if args.hex or not args.output:
        print(blob.hex())
    return 0


def cmd_ucode_ref(args) -> int:
    from .microcode import program_to_yaml, reference_program

    _emit(args, program_to_yaml(reference_program()))
    return 0


def cmd_ucode_dis(args) -> int:
    from .microcode import disassemble, program_to_yaml

    prog = read_file(args.input, disassemble, UcodeSyntaxError)
    _emit(args, program_to_yaml(prog))
    return 0


def cmd_run_layer(args) -> int:
    import numpy as np

    from .engine import EngineConfig
    from .runner import verify_layer

    spec = LayerSpec(nif=args.nif, nof=args.nof, fs=args.fs,
                     h_out=args.h, w_out=args.w, d=args.d)
    run, mism = verify_layer(EngineConfig(tp=args.tp), spec,
                             np.random.default_rng(_seed(args)))
    print(f"layer {spec.nif}->{spec.nof} fs={spec.fs} "
          f"{spec.h_out}x{spec.w_out} groups={spec.groups} tp={args.tp}")
    print(f"jobs {len(run.plan.jobs)}  cycles {run.cycles}  ops {run.ops}  "
          f"op/cycle {run.ops / run.cycles:.2f}")
    print(f"mismatches vs reference: {mism}")
    return 0 if mism == 0 else EXIT_VERIFY


def cmd_run_net(args) -> int:
    net = get_network(args.network)
    rep = run_network(net, args.mode, tp=args.tp, coeffs=_coeffs(args))
    _emit(args, rep.to_csv() if args.format == "csv" else rep.to_text())
    return 0


def _report_row(net, mode: str, tp: int, cs: CoefficientSet) -> str:
    try:
        rep = run_network(net, mode, tp=tp, coeffs=cs)
    except (CapacityError, PlanError) as ex:
        return f"{mode:<14}{'-':>10}{'-':>10}{'-':>8}{'-':>8}  ({ex})"
    t = rep.total_seconds
    return (f"{mode:<14}{rep.energy.total_j * 1e6:>10.3f}"
            f"{t * 1e3:>10.3f}{rep.fps:>8.2f}"
            f"{rep.total_ops / t / 1e9:>8.2f}")


def cmd_report(args) -> int:
    cs = _coeffs(args)
    modes = args.modes.split(",") if args.modes else sorted(cs.modes)
    # every row is computed before the first print, so a bad network,
    # mode or tp leaves stdout empty
    lines = []
    for net in map(get_network, args.networks):
        lines += [f"network {net.name}: {net.total_ops} ops, "
                  f"{net.packed_param_bits / 8 / 1024:.2f} KiB parameters",
                  f"{'mode':<14}{'E[uJ]':>10}{'t[ms]':>10}{'fps':>8}"
                  f"{'Gop/s':>8}"]
        lines += [_report_row(net, m, args.tp, cs) for m in modes]
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    from .runner import verify_layers

    recs = verify_layers(args.layers, seed=_seed(args), tp=args.tp)
    bad = [r for r in recs if r["mismatches"]]
    total_ops = sum(r["ops"] for r in recs)
    print(f"{len(recs)} layers, {total_ops} ops, "
          f"{len(bad)} with mismatches")
    for r in bad:
        print(f"  layer {r['layer']}: {r['spec']}: "
              f"{r['mismatches']} wrong bits")
        print(f"    replay: xnesim verify --layers {r['layer'] + 1} "
              f"--seed {args.seed} --tp {args.tp}")
    return 0 if not bad else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xnesim",
                                description="binary conv engine simulator")
    sub = p.add_subparsers(dest="cmd", required=True)

    uc = sub.add_parser("ucode", help="microcode tools")
    ucsub = uc.add_subparsers(dest="ucmd", required=True)
    a = ucsub.add_parser("asm", help="yaml program -> 28 byte bitstream")
    a.add_argument("input")
    a.add_argument("-o", "--output")
    a.add_argument("--hex", action="store_true",
                   help="print the bitstream as hex even when writing a file")
    a.set_defaults(fn=cmd_ucode_asm)
    d = ucsub.add_parser("dis", help="28 byte bitstream -> yaml program")
    d.add_argument("input")
    d.add_argument("-o", "--output")
    d.set_defaults(fn=cmd_ucode_dis)
    r = ucsub.add_parser("ref", help="dump the built-in walk program")
    r.add_argument("-o", "--output")
    r.set_defaults(fn=cmd_ucode_ref)

    run = sub.add_parser("run", help="run a layer or a network")
    runsub = run.add_subparsers(dest="rcmd", required=True)
    rl = runsub.add_parser("layer", help="one random layer vs the reference")
    rl.add_argument("--nif", type=int, required=True)
    rl.add_argument("--nof", type=int, required=True)
    rl.add_argument("--fs", type=int, default=3)
    rl.add_argument("--h", type=int, default=8)
    rl.add_argument("--w", type=int, default=8)
    rl.add_argument("--d", type=int, default=None,
                    help="band width (input channels per output channel)")
    rl.add_argument("--tp", type=int, default=128)
    rl.add_argument("--seed", type=int, default=0)
    rl.set_defaults(fn=cmd_run_layer)
    rn = runsub.add_parser("net", help="analytic network run")
    rn.add_argument("network", help="resnet18|resnet34|mvgg-N|mvgg-f")
    rn.add_argument("--mode", default="sram-0v6")
    rn.add_argument("--tp", type=int, default=128)
    rn.add_argument("--format", choices=("text", "csv"), default="text")
    rn.add_argument("--config", help="coefficient override yaml")
    rn.add_argument("-o", "--output")
    rn.set_defaults(fn=cmd_run_net)

    rep = sub.add_parser("report", help="energy/time across operating points")
    rep.add_argument("networks", nargs="+")
    rep.add_argument("--modes", help="comma separated; default all")
    rep.add_argument("--tp", type=int, default=128)
    rep.add_argument("--config")
    rep.set_defaults(fn=cmd_report)

    v = sub.add_parser("verify", help="random layers engine vs reference")
    v.add_argument("--layers", type=int, default=50)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tp", type=int, default=128)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CapacityError, PlanError, RegionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CAPACITY
    except (XneError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
