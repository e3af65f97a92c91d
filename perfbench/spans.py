"""Span recording and the summary statistics the benchmark reports.

A span is one timed call: name, start, end (ns, `time.perf_counter_ns`),
the enclosing span and the op it belongs to.  Spans stay in memory and
are written out once, when the run ends.  A span's self time is its
duration minus the part of its interval that its direct children cover.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import astuple, dataclass
from dataclasses import fields as fields_of

# candidate tail percentiles, highest first; the reported tail is the
# highest one that still leaves at least TAIL_MIN_BEYOND samples above it.
# The ladder stops at p90.  On a 2-vCPU virtual machine whose cores other
# tenants share, the sweep workload's p99 over five seeds of 20 s runs
# (22k-25k samples each) ranged from 0.87 to 1.15 ms and its p99.9 moved 2x
# between seeds: both were set by preemption stalls, not by the program.
# Its p90 ranged from 0.69 to 0.77 ms.
TAIL_LADDER = (90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int


class _Open:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(Span(self.id, self.name, self.start, end, self.parent, tr.op))
        return False


class Tracer:
    """Single-threaded span recorder; `op` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def dump(self, path) -> None:
        fields = [f.name for f in fields_of(Span)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": [list(astuple(s)) for s in self.spans]}, fh)


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, int]:
    """Self time in ns of every span, keyed by span id."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {
        s.id: (s.end_ns - s.start_ns)
        - covered_ns(s.start_ns, s.end_ns, children.get(s.id, ()))
        for s in spans
    }


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_ms (sum of self time) and p50_us (median self time)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(own[s.id])
    return {
        name: {
            "calls": len(v),
            "busy_ms": sum(v) / 1e6,
            "p50_us": statistics.median(v) / 1e3,
        }
        for name, v in by_name.items()
    }


def nearest_rank(sorted_vals, pct: float):
    """Nearest-rank percentile of an ascending list; returns (value, samples beyond)."""
    n = len(sorted_vals)
    k = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return sorted_vals[k - 1], n - k


def tail_percentile(samples):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Returns (percentile, value, samples_beyond).  Below 2 * TAIL_MIN_BEYOND
    samples no percentile qualifies and the median is returned.
    """
    vals = sorted(samples)
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(vals, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    value, beyond = nearest_rank(vals, 50.0)
    return 50.0, value, beyond
