"""Span tracing of the simulator's public functions, from outside.

A Tracer replaces each listed function with a wrapper that records one
span (name, start, end, parent) per call, and puts every original back
on uninstall. Nothing under src/ is edited: the wrappers are installed
on the module and class objects at run time, and every xnesim module
that imported the same function by name gets the wrapper too, so
internal calls are seen as well.

Per-step hot paths (UcodeState.step, Memory.read) are deliberately not
wrapped; the benchmark counts them in closed form instead.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, class or None, attribute): the span name is
# "<module>.<class>.<attribute>" or "<module>.<attribute>".
TRACED = [
    ("bintensor", "BinaryTensor", "from_bits"),
    ("bintensor", "BinaryTensor", "to_bits"),
    ("bintensor", "BinaryWeights", "from_bits"),
    ("bintensor", "BinaryWeights", "to_bits"),
    ("golden", None, "conv_popcounts"),
    ("golden", None, "apply_thresholds"),
    ("golden", None, "layer_golden"),
    ("golden", None, "derive_thresholds"),
    ("golden", None, "random_layer_data"),
    ("golden", None, "random_batchnorm"),
    ("microcode", None, "offset_sequence"),
    ("microcode", None, "ucode_registers"),
    ("microcode", None, "reference_program"),
    ("engine", "Engine", "run_next"),
    ("engine", None, "phase_schedule"),
    ("memory", "Memory", "__init__"),
    ("memory", None, "account_energy"),
    ("runner", None, "plan_layer"),
    ("runner", "JobPlan", "masks"),
    ("runner", None, "weight_stream_words"),
    ("runner", None, "threshold_stream_bytes"),
    ("runner", None, "execute_layer"),
    ("runner", None, "run_network"),
    ("runner", None, "random_layer_spec"),
    ("runner", None, "random_threshold_spec"),
    ("networks", None, "get_network"),
    ("networks", None, "make_mvgg"),
    ("networks", None, "make_resnet"),
]

MAX_KEPT_SPANS = 50_000


class Tracer:
    """Wraps TRACED, records spans, folds them into self times.

    Spans accumulate in `spans` until fold() is called (between passes,
    when no span is open). fold() adds each span's self time (its
    duration minus the durations of its direct children) and its call
    count to `self_s`/`calls` under a phase label, and keeps the raw
    spans, up to MAX_KEPT_SPANS, for writing out at the end.
    """

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent]
        self.kept: list[list] = []      # [phase, name, start, end, parent]
        self.dropped = 0
        self.self_s: dict[str, dict[str, float]] = {}
        self.calls: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        for mod_name, cls_name, attr in TRACED:
            mod = sys.modules[f"xnesim.{mod_name}"]
            owner = getattr(mod, cls_name) if cls_name else mod
            name = ".".join(p for p in (mod_name, cls_name, attr) if p)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._patch(owner, attr, raw, new)
            if cls_name is None:
                # rebind `from .x import f` aliases in the other modules
                for other_name, other in list(sys.modules.items()):
                    if (other_name.split(".")[0] == "xnesim"
                            and other is not mod
                            and other.__dict__.get(attr) is raw):
                        self._patch(other, attr, raw, new)

    def _patch(self, owner, attr, raw, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> bool:
        """Put every original back; True when all are restored."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        ok = all(owner.__dict__[attr] is raw
                 for owner, attr, raw in self._patches)
        self._patches.clear()
        return ok

    def fold(self, phase: str) -> None:
        if self._stack:
            raise RuntimeError("fold() with an open span")
        n = len(self.spans)
        if n == 0:
            return
        start = np.fromiter((s[1] for s in self.spans), float, n)
        end = np.fromiter((s[2] for s in self.spans), float, n)
        parent = np.fromiter((s[3] for s in self.spans), np.int64, n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        acc = self.self_s.setdefault(phase, {})
        cnt = self.calls.setdefault(phase, {})
        for s, t in zip(self.spans, self_time.tolist()):
            acc[s[0]] = acc.get(s[0], 0.0) + t
            cnt[s[0]] = cnt.get(s[0], 0) + 1
        room = MAX_KEPT_SPANS - len(self.kept)
        if room >= n:
            base = len(self.kept)
            self.kept.extend(
                [phase, s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1]
                for s in self.spans)
        else:
            self.dropped += n
        self.spans.clear()
