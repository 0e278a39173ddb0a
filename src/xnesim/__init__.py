"""Bit-exact, cycle-approximate model of a binary-neural-network
convolution engine, its microcoded address generator, streamer and
memory system, plus network-level workload runs.

`import xnesim` loads only the parts that import no numpy,
xnesim.analytic and xnesim.errors; every name is imported from the
module that defines it.
"""

# Imported here, before anything loads numpy. Compiled from source after
# numpy instead, it left glibc's heap re-faulting several MB per MVGG-2
# frame of the functional path: 10x the page faults and about 12% more
# time, measured on a 2-core x86-64 host.
from . import analytic

__version__ = "0.1.0"
