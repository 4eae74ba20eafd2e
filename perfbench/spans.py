"""Span recording, self time and summary statistics for the benchmark.

Everything here is plain Python with no dependency on nlcx, so the
self-tests can drive it with synthetic spans.  A span is a tuple
(name, start, end, parent) where parent is the index of the enclosing
span in the same list, or -1.  A span name is "<layer>.<function>".
"""

from __future__ import annotations

import math
import time

# Percentile ladder for the "highest percentile with at least ten samples
# beyond it" rule.
LADDER = (0.50, 0.90, 0.99, 0.999)
MIN_BEYOND = 10


class Recorder:
    """Collects spans in memory; wrap() returns a traced callable."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][1] = start
                spans[idx][2] = clock()
                stack.pop()

        return traced


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def _outermost(spans, key) -> list[bool]:
    """Whether no ancestor of a span has the same key (layer or name)."""
    keys = [key(s[0]) for s in spans]
    out = []
    for i, s in enumerate(spans):
        p = s[3]
        while p >= 0 and keys[p] != keys[i]:
            p = spans[p][3]
        out.append(p < 0)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans) -> dict:
    """Per function: calls, busy time and outermost durations.  Per layer:
    busy time (outermost spans of the layer) and self time.  Nested calls
    of a function or layer inside itself are not counted twice in busy."""
    selfs = self_times(spans)
    outer_fn = _outermost(spans, lambda n: n)
    outer_layer = _outermost(spans, layer_of)
    fns: dict = {}
    layers: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        f = fns.setdefault(name, {"calls": 0, "busy_s": 0.0, "durations": []})
        f["calls"] += 1
        if outer_fn[i]:
            f["busy_s"] += end - start
            f["durations"].append(end - start)
        lay = layers.setdefault(layer_of(name), {"busy_s": 0.0, "self_s": 0.0})
        lay["self_s"] += selfs[i]
        if outer_layer[i]:
            lay["busy_s"] += end - start
    return {"functions": fns, "layers": layers}


# -- statistics ------------------------------------------------------------------

def nearest_rank(sorted_vals, frac: float):
    idx = max(0, math.ceil(frac * len(sorted_vals)) - 1)
    return sorted_vals[idx]


def beyond(n: int, frac: float) -> int:
    """Samples strictly above the nearest-rank percentile position."""
    return n - max(1, math.ceil(frac * n))


def tail_percentile(n: int):
    """Highest percentile of LADDER with at least MIN_BEYOND samples
    beyond it, or None when even the lowest has too few."""
    best = None
    for frac in LADDER:
        if beyond(n, frac) >= MIN_BEYOND:
            best = frac
    return best


def percentile_or_zero(values, frac: float) -> float:
    """Nearest-rank percentile when at least ten samples lie beyond it,
    else 0.0 (too few samples to report that percentile)."""
    vals = sorted(values)
    if not vals or beyond(len(vals), frac) < MIN_BEYOND:
        return 0.0
    return nearest_rank(vals, frac)
