"""The benchmark's three workloads.

Each workload is a fixed list of items; one pass runs every item once.
The layer shapes, networks and calls are fixed, so every modelled
number (cycles, ops, traffic, energy, the fit pattern) is the same for
every seed and is checked against reference.json on every item. The
seed draws the input bits and thresholds (and the call order of
analytic_report), so output bits are checked against the golden model.

  verify_sweep     VERIFY_LAYERS random layers, each generated, run on
                   the engine and compared bit for bit with golden,
                   with the steps of runner.verify_layers
  mvgg2_frame      the 7 layers of MVGG-2 on the functional engine,
                   inputs generated in set-up, each checked with golden
  analytic_report  run_network over every network x mode x valid TP
"""

from __future__ import annotations

import hashlib

import numpy as np

from xnesim import engine, golden, memory, microcode, networks, runner
from xnesim.errors import CapacityError, PlanError

DEFAULT_SEED = 20260815
HELD_OUT_SEED = 20261017    # kept out of tuning; re-check claims on it
SHAPE_SEED = 20260815       # fixes the verify_sweep layer shapes
VERIFY_LAYERS = 60
MAX_SPATIAL = 8
TP = 128
NETWORKS = ("resnet18", "resnet34", "mvgg-1", "mvgg-2", "mvgg-4",
            "mvgg-8", "mvgg-f")
PHASES = ("feature_load", "accumulate", "threshold", "gaps", "overhead")
REGIONS = tuple(r.name for r in memory.default_memory_map())
MODES = tuple(memory.CoefficientSet().modes)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _functional(cfg, spec, x, w, thr):
    """One layer on the engine plus its golden check."""
    mem = memory.Memory()
    run = runner.execute_layer(cfg, spec, x, w, thr, mem)
    want = golden.layer_golden(x, w, spec, thr)
    ok = bool(np.array_equal(run.output.to_bits(), want.to_bits()))
    return ok, run, mem


def _layer_model(run, mem) -> dict:
    """Modelled numbers of one functional layer run."""
    m = {"cycles": run.cycles, "ops": run.ops, "jobs": len(run.results),
         "steps": sum(j.geom.iterations for j in run.plan.jobs),
         "lane_slots": sum(j.geom.iterations * j.geom.tp
                           for j in run.plan.jobs),
         "outputs": sum(r.outputs_written for r in run.results)}
    for p in PHASES:
        m[p] = sum(getattr(r.schedule, p) for r in run.results)
    for region in REGIONS:
        for k in ("read_bits", "write_bits"):
            m[f"{region}.{k}"] = mem.traffic[region][k]
    return m


def replay_walk(prog, geoms) -> bool:
    """Walk each job's offsets with the microcode interpreter alone;
    True when every walk has the closed-form number of steps."""
    return all(len(microcode.offset_sequence(prog, g)) == g.iterations
               for g in geoms)


class Workload:
    """Items, a per-item runner (the timed part) and a summary of its
    result (untimed): (bits_ok, output digest, modelled numbers)."""

    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def summarize(self, item, result) -> tuple[bool, str, dict]:
        raise NotImplementedError

    def key(self, item) -> str:
        return str(item)

    def specs(self) -> list:
        """Layer shapes one pass runs on the functional engine."""
        return []

    def geometries(self) -> list:
        """Job geometries of one pass, for the microcode walk replay."""
        return [j.geom for spec in self.specs()
                for j in runner.plan_layer(spec, TP).jobs]

    def totals(self, models: dict[str, dict]) -> dict:
        """Per-pass modelled totals from the per-item numbers."""
        t = {k: 0 for k in ("cycles", "ops", "jobs", "steps",
                            "lane_slots", "outputs", *PHASES)}
        for region in REGIONS:
            t[f"{region}.read_bits"] = t[f"{region}.write_bits"] = 0
        for m in models.values():
            for k in t:
                t[k] += m[k]
        return t


class VerifySweep(Workload):
    name = "verify_sweep"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = engine.EngineConfig(tp=TP)
        self.items = list(range(VERIFY_LAYERS))

    @staticmethod
    def _spec(i: int):
        return runner.random_layer_spec(np.random.default_rng([SHAPE_SEED, i]),
                                        max_spatial=MAX_SPATIAL)

    def specs(self) -> list:
        return [self._spec(i) for i in self.items]

    def run(self, i):
        spec = self._spec(i)
        rng = np.random.default_rng([self.seed, i])
        x, w = golden.random_layer_data(rng, spec)
        thr = runner.random_threshold_spec(rng, spec)
        return _functional(self.cfg, spec, x, w, thr)

    def summarize(self, item, result):
        ok, run, mem = result
        return ok, _digest(run.output.words.tobytes()), _layer_model(run, mem)


class Mvgg2Frame(VerifySweep):
    name = "mvgg2_frame"

    def setup(self, seed: int) -> None:
        self.cfg = engine.EngineConfig(tp=TP)
        net = networks.get_network("mvgg-2")
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for nl in net.layers:
            x, w = golden.random_layer_data(rng, nl.spec)
            thr = runner.random_threshold_spec(rng, nl.spec)
            self.inputs[nl.name] = (nl.spec, x, w, thr)
        self.items = list(self.inputs)

    def specs(self) -> list:
        return [spec for spec, *_ in self.inputs.values()]

    def run(self, layer):
        return _functional(self.cfg, *self.inputs[layer])


class AnalyticReport(Workload):
    name = "analytic_report"

    def setup(self, seed: int) -> None:
        self.nets = {n: networks.get_network(n) for n in NETWORKS}
        items = [(n, m, tp) for n in NETWORKS for m in MODES
                 for tp in engine.VALID_TPS]
        order = np.random.default_rng(seed).permutation(len(items))
        self.items = [items[k] for k in order]

    def key(self, item) -> str:
        return "/".join(map(str, item))

    def run(self, item):
        net, mode, tp = item
        try:
            return runner.run_network(self.nets[net], mode, tp=tp)
        except (CapacityError, PlanError) as e:
            return e

    def summarize(self, item, rep):
        if isinstance(rep, Exception):
            m = {"outcome": type(rep).__name__}
        else:
            m = {"outcome": "fit", "cycles": rep.total_cycles,
                 "ops": rep.total_ops, "layers": len(rep.rows),
                 "energy_j": rep.energy.total_j,
                 "seconds": rep.total_seconds}
        return True, _digest(repr(sorted(m.items())).encode()), m

    def totals(self, models: dict[str, dict]) -> dict:
        """Fit pattern, report totals and per-mode energy, plus the
        planned jobs and phase budgets of every call that fits."""
        t = {"fits": 0, "capacity_errors": 0, "plan_errors": 0,
             "cycles": 0, "ops": 0, "jobs": 0, "steps": 0, "lane_slots": 0,
             **{p: 0 for p in PHASES},
             **{f"energy_j.{m}": 0.0 for m in MODES}}
        for key in sorted(models):
            m = models[key]
            if m["outcome"] != "fit":
                t["capacity_errors" if m["outcome"] == "CapacityError"
                  else "plan_errors"] += 1
                continue
            net, mode, tp = key.split("/")
            t["fits"] += 1
            t["cycles"] += m["cycles"]
            t["ops"] += m["ops"]
            t[f"energy_j.{mode}"] += m["energy_j"]
            cfg = engine.EngineConfig(tp=int(tp))
            for nl in self.nets[net].layers:
                plan = runner.plan_layer(nl.spec, int(tp))
                t["jobs"] += len(plan.jobs)
                for job, s in zip(plan.jobs, plan.schedules(cfg)):
                    t["steps"] += job.geom.iterations
                    t["lane_slots"] += job.geom.iterations * job.geom.tp
                    for p in PHASES:
                        t[p] += getattr(s, p)
        return t


WORKLOADS = {w.name: w for w in (VerifySweep, Mvgg2Frame, AnalyticReport)}
