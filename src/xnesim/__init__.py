"""Bit-exact, cycle-approximate model of a binary-neural-network
convolution engine, its microcoded address generator, streamer and
memory system, plus network-level workload runs."""

from .bintensor import BinaryTensor, BinaryWeights
from .errors import (CapacityError, DecodeError, DegenerateBatchNorm,
                     ModeError, PlanError, RegionError, ShapeError,
                     UcodeSyntaxError, XneError)
from .golden import (BatchNormParams, LayerSpec, ThresholdSpec,
                     derive_thresholds, layer_golden, real_reference)
from .microcode import (JobGeometry, MicrocodeProgram, disassemble,
                        parse_program, program_to_yaml, reference_program,
                        ucode_registers)
from .engine import Engine, EngineConfig, JobDescriptor, phase_schedule
from .memory import CoefficientSet, EnergyBreakdown, Memory, account_energy
from .networks import NetworkDescriptor, get_network
from .runner import (execute_layer, layer_cost, plan_layer, run_network,
                     verify_layers)

__version__ = "0.1.0"
