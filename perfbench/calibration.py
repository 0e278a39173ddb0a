"""A fixed piece of host work that measures the host's current speed.

The timings of this benchmark are divided by this kernel's time, taken
in the same run, and multiplied by REFERENCE_S (see README.md,
"Statistics"). The kernel uses no simulator code, so a change to the
simulator cannot move it. It mixes the kinds of work the simulator
does: an interpreted loop of integer and dict operations, numpy calls
on one 128-lane block of 32-bit words, bit packing, and a small
integer tensordot.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the 2-core box the benchmark was tuned on,
# at the 90th percentile, while other tenants kept that host busy.
REFERENCE_S = 3.6e-3

_WORDS = np.arange(512, dtype=np.uint32).reshape(128, 4)
_BITS = (np.arange(8192) % 3 == 0).astype(np.uint8)
_X = (np.arange(64 * 81) % 5 == 0).astype(np.int32).reshape(64, 9, 9)
_W = (np.arange(64 * 64) % 7 == 0).astype(np.int32).reshape(64, 64)


def kernel() -> int:
    acc = np.zeros(128, dtype=np.int64)
    x, table = 0, {}
    for i in range(100):
        for _ in range(8):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 255] = i
        agree = ~(_WORDS ^ np.uint32(x))
        acc += np.bitwise_count(agree).sum(axis=1, dtype=np.int64)
        np.minimum(acc, 0xFFFF, out=acc)
    for _ in range(4):
        packed = np.packbits(_BITS, bitorder="little")
        bits = np.unpackbits(packed, bitorder="little")
        conv = np.tensordot(_W, _X, axes=([1], [0]))
    return int(acc.sum()) + int(bits.sum()) + int(conv.sum()) + len(table)


def seconds() -> float:
    """Host seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
