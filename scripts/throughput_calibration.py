#!/usr/bin/env python3
"""Sustained throughput across layer shapes and array widths.

Runs the functional engine on a grid of conv layers and reports
op/cycle against the 2*TP peak, separating the effects of remainder
tiles (wasted lanes) and small images (fixed per-block overheads).

    python3 scripts/throughput_calibration.py
    python3 scripts/throughput_calibration.py --tp 256 --pixels 8
"""

import argparse

import numpy as np

from xnesim.engine import EngineConfig
from xnesim.errors import XneError
from xnesim.golden import LayerSpec, random_layer_data
from xnesim.runner import execute_layer, random_threshold_spec


def measure(spec: LayerSpec, tp: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x, w = random_layer_data(rng, spec)
    thr = random_threshold_spec(rng, spec)
    run = execute_layer(EngineConfig(tp=tp), spec, x, w, thr)
    return run.ops, run.cycles


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tp", type=int, default=128)
    ap.add_argument("--pixels", type=int, default=16,
                    help="square output size of the calibration layers")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    hw = args.pixels
    grid = [
        LayerSpec(nif=args.tp, nof=args.tp, fs=3, h_out=hw, w_out=hw),
        LayerSpec(nif=2 * args.tp, nof=2 * args.tp, fs=3, h_out=hw, w_out=hw),
        LayerSpec(nif=args.tp, nof=args.tp, fs=1, h_out=hw, w_out=hw),
        LayerSpec(nif=args.tp, nof=args.tp, fs=5, h_out=hw, w_out=hw),
        LayerSpec(nif=args.tp, nof=args.tp, fs=3, h_out=2, w_out=2),
        LayerSpec(nif=args.tp - 28, nof=args.tp - 28, fs=3,
                  h_out=hw, w_out=hw),
        LayerSpec(nif=args.tp + 32, nof=args.tp + 32, fs=3,
                  h_out=hw, w_out=hw),
    ]
    peak = 2 * args.tp
    print(f"tp={args.tp}  peak {peak} op/cycle")
    print(f"{'layer':<22}{'ops':>12}{'cycles':>10}{'op/cy':>8}{'% peak':>8}")
    for spec in grid:
        try:
            ops, cycles = measure(spec, args.tp, args.seed)
        except XneError as ex:
            print(f"{spec.nif}x{spec.nof} fs{spec.fs}: {ex}")
            continue
        name = f"{spec.nif}->{spec.nof} fs{spec.fs} {spec.h_out}x{spec.w_out}"
        opc = ops / cycles
        print(f"{name:<22}{ops:>12}{cycles:>10}{opc:>8.1f}"
              f"{100 * opc / peak:>7.1f}%")


if __name__ == "__main__":
    main()
