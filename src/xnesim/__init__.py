"""Bit-exact, cycle-approximate model of a binary-neural-network
convolution engine, its microcoded address generator, streamer and
memory system, plus network-level workload runs.

`import xnesim` loads only the parts that import no numpy,
xnesim.analytic and xnesim.errors; the functional names below are
imported on first use (PEP 562).
"""

import importlib

# Imported here, before anything loads numpy. Compiled from source after
# numpy instead, it left glibc's heap re-faulting several MB per MVGG-2
# frame of the functional path: 10x the page faults and about 12% more
# time, measured on a 2-core x86-64 host.
from .analytic import (CoefficientSet, EnergyBreakdown, LayerSpec,
                       NetworkDescriptor, account_energy, get_network,
                       layer_cost, phase_schedule, run_network)
from .errors import (CapacityError, DecodeError, DegenerateBatchNorm,
                     ModeError, PlanError, RegionError, ShapeError,
                     UcodeSyntaxError, XneError)

# the functional names, by the submodule that defines each
_LAZY = {
    "bintensor": ("BinaryTensor", "BinaryWeights"),
    "engine": ("Engine", "EngineConfig", "JobDescriptor"),
    "golden": ("BatchNormParams", "ThresholdSpec", "derive_thresholds",
               "layer_golden", "real_reference"),
    "memory": ("Memory",),
    "microcode": ("JobGeometry", "MicrocodeProgram", "disassemble",
                  "parse_program", "program_to_yaml", "reference_program",
                  "ucode_registers"),
    "runner": ("execute_layer", "plan_layer", "verify_layers"),
}
_SOURCES = {name: module for module, names in _LAZY.items()
            for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
