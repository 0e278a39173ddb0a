#!/usr/bin/env python3
"""Host-time benchmark of the xnesim simulator.

One workload per process, single-threaded:

    python3 perfbench/run.py --workload mvgg2_frame --seed 1 --seconds 30 --trace 0

prints every metric with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics; --trace 1 gives the per-layer breakdown from a
traced run (and checks it against an untraced run in the same process).

    python3 perfbench/run.py --all [--seconds 10] [--out R.json] [--against OLD.json]

runs every workload in its own child process, untraced and traced,
prints one table of all metrics, writes the combined result file and,
with --against, fails if any modelled number differs from OLD.json.

    python3 perfbench/run.py --write-reference

re-pins reference.json from one pass of each workload at the default
seed. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("verify_sweep", "mvgg2_frame", "analytic_report")
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
# The timing statistic: an item's time is this percentile of its times
# over a run's passes (see README.md, "Statistics").
STEADY_PERCENTILE = 90
# Share of each pass's time spent after it on calibration kernel runs.
CALIBRATION_SHARE = 0.05
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); "
               "import xnesim.runner, xnesim.networks, xnesim.golden; "
               "print(time.perf_counter() - t)")

# name -> (unit, better); the end-to-end metrics of a --trace 0 run
END_TO_END = {
    "wall_s": ("s", "lower"),
    "item_ms_p50": ("ms", "lower"),
    "item_ms_p90": ("ms", "lower"),
    "items_per_s": ("1/s", "higher"),
    "sim_cycles_per_s": ("cycles/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# layer time -> span names whose self time it sums
LAYER_TIMES = {
    "bintensor.pack_s": ("bintensor.BinaryTensor.from_bits",
                         "bintensor.BinaryWeights.from_bits"),
    "bintensor.unpack_s": ("bintensor.BinaryTensor.to_bits",
                           "bintensor.BinaryWeights.to_bits"),
    "golden.conv_s": ("golden.conv_popcounts",),
    "golden.thresholds_s": ("golden.apply_thresholds",),
    "engine.job_s": ("engine.Engine.run_next",),
    "engine.schedule_s": ("engine.phase_schedule",),
    "runner.plan_s": ("runner.plan_layer",),
    "runner.masks_s": ("runner.JobPlan.masks",),
    "runner.weight_stream_s": ("runner.weight_stream_words",),
    "runner.threshold_stream_s": ("runner.threshold_stream_bytes",),
    "runner.execute_self_s": ("runner.execute_layer",),
    "runner.network_s": ("runner.run_network",),
    "memory.init_s": ("memory.Memory.__init__",),
    "memory.energy_s": ("memory.account_energy",),
}
MODULES = ("bintensor", "golden", "microcode", "engine", "memory",
           "runner", "networks")
PHASE_METRICS = {"feature_load": "engine.feature_load_cycles",
                 "accumulate": "engine.accumulate_cycles",
                 "threshold": "engine.threshold_cycles",
                 "gaps": "engine.gap_cycles",
                 "overhead": "engine.overhead_cycles"}

# The layer times in a --trace 1 result line: only those on every
# workload's path, since the others read a constant 0 on some workload.
# The rest are printed and kept in the result file (see README.md).
COMMON_LAYER_TIMES = ("runner.plan_s", "engine.schedule_s", "runner.self_s",
                      "engine.self_s", "memory.self_s")


def per_layer_units(regions, modes) -> dict[str, str]:
    """The per-layer metrics of a --trace 1 run, with their units."""
    units = {name: "s" for name in COMMON_LAYER_TIMES}
    units.update({"trace.pass_s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count", "bintensor.calls": "count",
                  "engine.jobs": "count", "microcode.steps": "count",
                  "engine.cycles": "cycles", "engine.ops": "ops",
                  "engine.lane_util": "ratio"})
    units.update({m: "cycles" for m in PHASE_METRICS.values()})
    for r in regions:
        units[f"memory.{r}.read_bits"] = "bits"
        units[f"memory.{r}.write_bits"] = "bits"
    for m in modes:
        units[f"memory.energy_j.{m}"] = "J"
    return units


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_xnesim():
    """Make the checkout's src/ importable, single-threaded, with the
    default coefficients; exit 2 when there is no simulator here."""
    if not (SRC / "xnesim" / "__init__.py").is_file():
        fail(f"no simulator sources at {SRC / 'xnesim'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("XNESIM_COEFFS", None)
    sys.path.insert(0, str(SRC))
    import xnesim
    if Path(xnesim.__file__).resolve().parent != SRC / "xnesim":
        fail(f"imported xnesim from {xnesim.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def steady(values) -> float:
    import numpy as np
    return float(np.percentile(values, STEADY_PERCENTILE))


def import_seconds() -> float:
    """Median import time of the simulator in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Measurement:
    """Passes of one workload: each item's host seconds in every pass,
    the failure count, and the first pass's output digests and models."""

    def __init__(self):
        self.pass_s: list[float] = []
        # compact, so that peak RSS does not grow with the pass count
        self.samples: dict[str, array.array] = {}
        self.calibration = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.models: dict[str, dict] = {}

    def item_seconds(self) -> dict[str, float]:
        """Each item's STEADY_PERCENTILE time over the passes; the first
        pass is a warm-up when there are more."""
        return {k: steady(v[1:] or v) for k, v in self.samples.items()}

    def scale(self) -> float:
        """Reference over measured calibration time: multiplies a host
        time of this run into one at the reference speed."""
        import calibration
        return calibration.REFERENCE_S / steady(self.calibration)

    def wall_s(self) -> float:
        """Host seconds per pass, not scaled."""
        return sum(self.item_seconds().values())


def measure(wl, seconds: float, ref: dict, seed: int, after_pass=None
            ) -> Measurement:
    """Run whole passes until another one would pass the time budget.

    Only wl.run(item) is timed; the checks against golden and the
    reference run outside it. An item fails on a bit mismatch, a
    modelled number that differs from reference, an output that differs
    from the first pass, or an exception.
    """
    import calibration
    from workloads import DEFAULT_SEED
    clock = time.perf_counter
    m = Measurement()
    calibration.kernel()
    start = clock()
    while True:
        digests = {}
        busy = 0.0
        for item in wl.items:
            key = wl.key(item)
            m.attempted += 1
            t0 = clock()
            try:
                result = wl.run(item)
            except Exception as e:  # counted as a failed item
                busy += clock() - t0
                m.failed += 1
                print(f"item {key} raised {type(e).__name__}: {e}",
                      file=sys.stderr)
                continue
            dt = clock() - t0
            busy += dt
            m.samples.setdefault(key, array.array("d")).append(dt)
            ok, digest, model = wl.summarize(item, result)
            want = ref["items"].get(key)
            first = m.digests.get(key, digest)
            if not ok or model != want or digest != first:
                m.failed += 1
                print(f"item {key}: bits_ok={ok} model_ok={model == want} "
                      f"repeatable={digest == first}", file=sys.stderr)
            digests[key] = digest
            if not m.pass_s:
                m.models[key] = model
        if not m.pass_s:
            m.digests = digests
            if seed == DEFAULT_SEED and pass_digest(digests) != ref["digest"]:
                m.failed += 1
                print("output digest differs from reference", file=sys.stderr)
        m.pass_s.append(busy)
        cal_end = clock() + CALIBRATION_SHARE * busy
        m.calibration.append(calibration.seconds())
        while clock() < cal_end:
            m.calibration.append(calibration.seconds())
        if after_pass:
            after_pass()
        if clock() - start + statistics.median(m.pass_s) > seconds:
            return m


def pass_digest(digests: dict[str, str]) -> str:
    import hashlib
    text = ",".join(f"{k}={digests[k]}" for k in sorted(digests))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(m: Measurement, totals: dict, setup_s: float) -> dict:
    """The end-to-end metrics, with every time at the reference speed."""
    import numpy as np
    item = [t * m.scale() for t in m.item_seconds().values()]
    wall = sum(item)
    p50, p90 = np.percentile(item, [50, 90])
    return {"wall_s": wall, "item_ms_p50": 1e3 * float(p50),
            "item_ms_p90": 1e3 * float(p90),
            "items_per_s": len(item) / wall,
            "sim_cycles_per_s": totals["cycles"] / wall,
            "setup_s": setup_s * m.scale(),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def raw_stats(m: Measurement) -> dict:
    """Plain statistics of the same samples, for the result file."""
    import numpy as np
    pooled = [t for v in m.samples.values() for t in v]
    return {"scale": m.scale(),
            "calibration_s_p90": steady(m.calibration),
            "calibration_s_median": statistics.median(m.calibration),
            "calibration_runs": len(m.calibration),
            "wall_s_unscaled": m.wall_s(),
            "pass_s_median": statistics.median(m.pass_s),
            "pass_s_min": min(m.pass_s), "pass_s_max": max(m.pass_s),
            "item_ms_pooled_p50": 1e3 * float(np.percentile(pooled, 50)),
            "item_ms_pooled_p90": 1e3 * float(np.percentile(pooled, 90)),
            "item_samples": len(pooled),
            "samples_per_item": min(len(v) for v in m.samples.values())}


def modelled_counts(totals: dict, regions, modes) -> dict:
    c = {"engine.cycles": totals["cycles"], "engine.ops": totals["ops"],
         "engine.jobs": totals["jobs"], "microcode.steps": totals["steps"],
         "engine.lane_util": totals["accumulate"] / totals["lane_slots"]}
    c.update({name: totals[p] for p, name in PHASE_METRICS.items()})
    for r in regions:
        for k in ("read_bits", "write_bits"):
            c[f"memory.{r}.{k}"] = totals.get(f"{r}.{k}", 0)
    for mode in modes:
        c[f"memory.energy_j.{mode}"] = totals.get(f"energy_j.{mode}", 0.0)
    return c


def layer_breakdown(tracer, phase: str, passes: int) -> dict:
    """Self seconds per pass (or per set-up) by layer and by module."""
    self_s = tracer.self_s.get(phase, {})
    out = {name: sum(self_s.get(s, 0.0) for s in spans) / passes
           for name, spans in LAYER_TIMES.items()}
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(
            t for s, t in self_s.items() if s.split(".")[0] == mod) / passes
    calls = tracer.calls.get(phase, {})
    out["bintensor.calls"] = sum(
        calls.get(s, 0) for s in (LAYER_TIMES["bintensor.pack_s"]
                                  + LAYER_TIMES["bintensor.unpack_s"])) / passes
    out["trace.spans"] = sum(calls.values()) / passes
    return out


def traced_run(wl, seconds: float, ref: dict, seed: int) -> tuple:
    """Untraced then traced passes, each for half the time. Returns the
    per-layer metrics, the full breakdown, both Measurements and the
    results of the run's own checks."""
    from tracing import Tracer
    from workloads import replay_walk
    from xnesim.microcode import reference_program
    plain = measure(wl, seconds / 2, ref, seed)
    prog, geoms = reference_program(), wl.geometries()
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup(seed)
        tracer.fold("setup")
        traced = measure(wl, seconds / 2, ref, seed,
                         after_pass=lambda: tracer.fold("pass"))
        walk_ok = replay_walk(prog, geoms)
        tracer.fold("walk")
    finally:
        restored = tracer.uninstall()
    same = (plain.digests == traced.digests and plain.models == traced.models)
    passes = len(traced.pass_s)
    breakdown = {"pass": layer_breakdown(tracer, "pass", passes),
                 "setup": layer_breakdown(tracer, "setup", 1)}
    breakdown["pass"]["microcode.walk_s"] = sum(
        tracer.self_s.get("walk", {}).values())
    breakdown["setup"]["networks.build_s"] = breakdown["setup"].pop(
        "networks.self_s")
    wall_plain, wall_traced = plain.wall_s(), traced.wall_s()
    per_layer = {k: breakdown["pass"][k] for k in
                 COMMON_LAYER_TIMES + ("trace.spans", "bintensor.calls")}
    per_layer["trace.pass_s"] = wall_traced
    per_layer["trace.overhead_s"] = wall_traced - wall_plain
    write_spans(wl.name, seed, tracer)
    checks = {"self_test": same, "restored": restored, "walk": walk_ok}
    for name, ok in checks.items():
        if not ok:
            print(f"traced run check failed: {name}", file=sys.stderr)
    return (per_layer, breakdown, plain, traced, checks)


def write_spans(workload: str, seed: int, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.json"
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["phase", "name", "start", "end", "parent"],
                   "dropped": tracer.dropped, "spans": tracer.kept}, f)


def run_workload(args) -> int:
    import_xnesim()
    sys.path.insert(0, str(HERE))
    import workloads as W
    ref_all = json.loads(REFERENCE.read_text())
    if args.workload not in ref_all:
        fail(f"reference.json has no entry for {args.workload}")
    ref = ref_all[args.workload]
    wl = W.WORKLOADS[args.workload]()

    setup_times = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    record = {"workload": wl.name, "seed": args.seed,
              "default_seed": W.DEFAULT_SEED,
              "held_out_seed": W.HELD_OUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    units = per_layer_units(W.REGIONS, W.MODES)
    if args.trace:
        per_layer, breakdown, plain, traced, checks = traced_run(
            wl, args.seconds, ref, args.seed)
        totals = wl.totals(plain.models)
        per_layer.update(modelled_counts(totals, W.REGIONS, W.MODES))
        metrics = {k: (per_layer[k], units[k]) for k in units}
        attempted = plain.attempted + traced.attempted + len(checks)
        failed = plain.failed + traced.failed + sum(
            not ok for ok in checks.values())
        record.update(breakdown=breakdown, checks=checks,
                      passes=[len(plain.pass_s), len(traced.pass_s)])
        m = plain
    else:
        setup_s = import_seconds() + statistics.median(setup_times)
        m = measure(wl, args.seconds, ref, args.seed)
        totals = wl.totals(m.models)
        metrics = {k: (v, END_TO_END[k][0]) for k, v in
                   end_to_end(m, totals, setup_s).items()}
        attempted, failed = m.attempted, m.failed
        record.update(passes=len(m.pass_s), raw=raw_stats(m),
                      setup_times=setup_times)
    attempted += 1  # the check of the pass totals
    if totals != ref["totals"]:
        failed += 1
        print("modelled totals differ from reference", file=sys.stderr)

    record.update(correct=failed == 0, attempted=attempted, failed=failed,
                  error_rate=failed / attempted,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  modelled=flat_modelled(totals, m.models),
                  digest=pass_digest(m.digests))
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['passes']}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<28} {v:>16.6g} {u}")
    print(f"  {'error_rate':<28} {record['error_rate']:>16.6g} ratio")
    if args.trace:
        for phase, rows in record["breakdown"].items():
            print(f"  per-{phase} breakdown (self s per {phase}, "
                  f"calls per {phase}):")
            for k, v in rows.items():
                if v or phase == "pass":
                    print(f"    {k:<28} {v:>14.6g}")
    status = 0
    if args.out:
        write_json(args.out, record)
    if args.against:
        status = against(json.loads(Path(args.against).read_text()),
                         {wl.name: record})
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return status


def flat_modelled(totals: dict, models: dict) -> dict:
    flat = {f"totals.{k}": v for k, v in totals.items()}
    for key, model in models.items():
        flat.update({f"items.{key}.{k}": v for k, v in model.items()})
    return flat


def write_json(path, obj) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def by_workload(doc: dict) -> dict:
    """A result file holds one workload's record or {"workloads": ...}."""
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: doc}


def against(prev_doc: dict, cur: dict) -> int:
    """Print one row per workload; 1 when a modelled number changed."""
    prev = by_workload(prev_doc)
    changed_any = False
    print(f"{'workload':<17}{'modelled':>9}{'changed':>9}{'bits':>10}"
          f"{'wall_s before':>15}{'after':>10}{'delta':>9}")
    for name, rec in cur.items():
        old = prev.get(name)
        if old is None:
            print(f"{name:<17}  not in the previous file")
            continue
        keys = set(old["modelled"]) | set(rec["modelled"])
        changed = sorted(k for k in keys
                         if old["modelled"].get(k) != rec["modelled"].get(k))
        changed_any |= bool(changed)
        bits = ("seed" if old["seed"] != rec["seed"] else
                "same" if old["digest"] == rec["digest"] else "DIFFER")
        changed_any |= bits == "DIFFER"
        w0 = old["metrics"].get("wall_s", {}).get("value")
        w1 = rec["metrics"].get("wall_s", {}).get("value")
        wall = (f"{w0:>15.4f}{w1:>10.4f}{(w1 - w0) / w0:>+9.1%}"
                if w0 and w1 else f"{'-':>15}{'-':>10}{'-':>9}")
        print(f"{name:<17}{len(keys):>9}{len(changed):>9}{bits:>10}{wall}")
        for k in changed[:20]:
            print(f"    {k}: {old['modelled'].get(k)!r} -> "
                  f"{rec['modelled'].get(k)!r}")
    return 1 if changed_any else 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    OUT.mkdir(exist_ok=True)
    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        rec = {}
        for trace in (0, 1):
            part = OUT / f"part-{name}-{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(part)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, end="")
                fail(f"{name} --trace {trace} exited {proc.returncode}")
            sub = json.loads(part.read_text())
            part.unlink()
            if trace:
                rec["per_layer"] = sub["metrics"]
                rec["breakdown"] = sub["breakdown"]
                rec["checks"] = sub["checks"]
            else:
                rec.update(sub)
            rec.setdefault("runs", []).append(
                {k: sub[k] for k in ("trace", "correct", "attempted",
                                     "failed", "passes")})
        combined["workloads"][name] = rec
        combined["env"] = rec["env"]
    print_table(combined["workloads"])
    write_json(args.out or OUT / "result.json", combined)
    if args.against:
        return against(json.loads(Path(args.against).read_text()),
                       combined["workloads"])
    return 0 if all(r["correct"] for w in combined["workloads"].values()
                    for r in w["runs"]) else 1


def print_table(recs: dict) -> None:
    names = list(recs)
    print(f"{'metric':<30}{'unit':>9}" + "".join(f"{n:>17}" for n in names))

    def row(label, unit, values):
        print(f"{label:<30}{unit:>9}" + "".join(f"{v:>17.6g}" for v in values))

    first = recs[names[0]]
    for k, m in first["metrics"].items():
        row(k, m["unit"], [recs[n]["metrics"][k]["value"] for n in names])
    row("error_rate", "ratio",
        [sum(r["failed"] for r in recs[n]["runs"])
         / sum(r["attempted"] for r in recs[n]["runs"]) for n in names])
    for k, m in first["per_layer"].items():
        row(k, m["unit"], [recs[n]["per_layer"][k]["value"] for n in names])
    for phase in ("pass", "setup"):
        for k in first["breakdown"][phase]:
            if k not in first["per_layer"]:
                row(f"{phase}:{k}", "s" if k.endswith("_s") else "count",
                    [recs[n]["breakdown"][phase][k] for n in names])


def write_reference() -> int:
    """Pin the modelled numbers of one pass at the default seed."""
    import_xnesim()
    sys.path.insert(0, str(HERE))
    import workloads as W
    ref = {}
    for name, cls in W.WORKLOADS.items():
        wl = cls()
        wl.setup(W.DEFAULT_SEED)
        items, digests = {}, {}
        for item in wl.items:
            ok, digest, model = wl.summarize(item, wl.run(item))
            if not ok:
                fail(f"{name} item {item!r} does not match golden")
            items[wl.key(item)] = model
            digests[wl.key(item)] = digest
        ref[name] = {"seed": W.DEFAULT_SEED, "digest": pass_digest(digests),
                     "totals": wl.totals(items), "items": items}
        print(f"{name}: {len(items)} items, "
              f"{ref[name]['totals']['cycles']} cycles")
    write_json(REFERENCE, ref)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the xnesim simulator.")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the result record to this file")
    ap.add_argument("--against", help="previous result file to diff the "
                    "modelled numbers against")
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--write-reference", action="store_true",
                    help="re-pin reference.json at the default seed")
    args = ap.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload, --all or --write-reference")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
