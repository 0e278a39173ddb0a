"""The simulator names that perfbench wraps and sums must exist, so a
deletion under src/ cannot break `perfbench/run.py --trace 1` without
failing here; and one pass of each workload must pass the benchmark's
own correctness check against reference.json. perfbench's files are
loaded as they are, not copied."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from xnesim import analytic, engine, golden, memory, networks, runner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracing():
    """perfbench's tracing module, with every module it traces
    imported: the tracer looks each one up in sys.modules, and
    `import xnesim` loads none of them."""
    tracing = _load("tracing")
    for mod_name, _, _ in tracing.TRACED:
        importlib.import_module(f"xnesim.{mod_name}")
    return tracing


# the names defined in xnesim.analytic that perfbench traces or reads,
# or tests/test_acceptance.py imports, under their old module: the
# tracer wraps the object it finds in the old module and rebinds every
# alias of that same object, so each alias must be the definition
# itself. tests/test_imports.py allows no other alias.
REEXPORTS = [(golden, "LayerSpec"), (engine, "phase_schedule"),
             (engine, "VALID_TPS"), (memory, "account_energy"),
             (memory, "CoefficientSet"), (memory, "default_memory_map"),
             (runner, "run_network"), (networks, "get_network"),
             (networks, "make_mvgg"), (networks, "make_resnet")]


@pytest.mark.parametrize("module, name", REEXPORTS,
                         ids=[f"{m.__name__}.{n}" for m, n in REEXPORTS])
def test_reexport_is_the_definition(module, name):
    assert getattr(module, name) is getattr(analytic, name)


def test_tracer_sees_calls_inside_the_analytic_module():
    # run_network calls layer_cost, phase_schedule and account_energy
    # inside xnesim.analytic; the tracer must see each call
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        runner.run_network(networks.get_network("mvgg-2"), "sram-0v6")
    finally:
        assert tracer.uninstall() is True
    names = {s[0] for s in tracer.spans}
    assert {"networks.get_network", "networks.make_mvgg",
            "runner.run_network", "engine.phase_schedule",
            "memory.account_energy"} <= names
    assert analytic.phase_schedule is engine.phase_schedule


def test_tracer_installs_and_restores():
    tracing = _tracing()
    original = engine.Engine.__dict__.get("run_next")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert engine.Engine.__dict__["run_next"] is not original
    finally:
        assert tracer.uninstall() is True
    assert engine.Engine.__dict__["run_next"] is original


def test_layer_times_sum_traced_spans():
    tracing, run = _tracing(), _load("run")
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
