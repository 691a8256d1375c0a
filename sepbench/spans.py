"""In-memory span recorder and the arithmetic on recorded spans.

A span is (name, start, end, parent, run): ``parent`` is the index of the
enclosing span or -1, and ``run`` identifies the config run that caused it.
Spans are kept in parallel lists while the traced code runs and written out
once at the end, so recording costs one list append per field.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import Counter, defaultdict
from pathlib import Path


class SpanRecorder:
    """Records nested spans of wrapped callables, plus plain event counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn, new_run: bool = False, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``new_run`` starts a new run id at each call; ``after(args, kwargs,
        result)`` runs once the call returns, inside the span's accounting.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_run:
                self.run_id += 1
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.runs.append(self.run_id)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Return ``fn`` wrapped to count its calls under ``name``, no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_csv(self, path: Path):
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "run"])
            for i, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.runs)):
                name, start, end, parent, run = row
                writer.writerow([i, name, repr(start), repr(end), parent, run])


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((starts[c], ends[c]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def outermost(names, parents) -> list[bool]:
    """True for spans with no ancestor of the same name (for inclusive sums)."""
    flags = []
    for i, name in enumerate(names):
        parent = parents[i]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        flags.append(parent < 0)
    return flags


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 with no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(names, starts, ends, parents) -> dict[str, dict]:
    """Per-name calls, inclusive seconds, self seconds and durations."""
    selfs = self_times(starts, ends, parents)
    top = outermost(names, parents)
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
    )
    for i, name in enumerate(names):
        entry = table[name]
        duration = ends[i] - starts[i]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["durations"].append(duration)
        if top[i]:
            entry["s"] += duration
    return dict(table)
