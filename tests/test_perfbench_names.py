"""The simulator names that perfbench wraps and sums must exist, so a
deletion under src/ cannot break `perfbench/run.py --trace 1` without
failing here; and one pass of each workload must pass the benchmark's
own correctness check against reference.json. perfbench's files are
loaded as they are, not copied."""

import importlib.util
import json
from pathlib import Path

from xnesim import engine   # the package import loads every module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores():
    tracing = _load("tracing")
    original = engine.Engine.__dict__.get("run_next")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert engine.Engine.__dict__["run_next"] is not original
    finally:
        assert tracer.uninstall() is True
    assert engine.Engine.__dict__["run_next"] is original


def test_layer_times_sum_traced_spans():
    tracing, run = _load("tracing"), _load("run")
    traced = {".".join(p for p in entry if p) for entry in tracing.TRACED}
    spans = {s for names in run.LAYER_TIMES.values() for s in names}
    assert sorted(spans - traced) == []


def test_one_pass_of_each_workload_equals_reference():
    # the check perfbench makes on every run: each item bit-equal to
    # golden with the pinned modelled numbers, and the pass's output
    # digest and modelled totals as pinned
    workloads, run = _load("workloads"), _load("run")
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        wl.setup(workloads.DEFAULT_SEED)
        models, digests = {}, {}
        for item in wl.items:
            key = wl.key(item)
            ok, digests[key], models[key] = wl.summarize(item, wl.run(item))
            assert ok and models[key] == ref[name]["items"][key], (name, key)
        assert run.pass_digest(digests) == ref[name]["digest"], name
        assert wl.totals(models) == ref[name]["totals"], name
