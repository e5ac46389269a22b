"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by wrappers that replace module attributes at layer
boundaries; nothing under ``src/`` is edited.  Each span stores its name,
start, end and parent span; all spans of one process share one run id.
The run is single-threaded, so spans nest strictly and a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Callable, Optional


class Tracer:
    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[tuple, object], None]] = None) -> Callable:
        """fn recording one span per call; observe(args, result) runs after
        the span closes, so its cost lands in the caller's self time."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def child_times(self) -> list[float]:
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return covered

    def self_times(self) -> list[float]:
        return [d - c for d, c in zip(self.durations(), self.child_times())]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for nid, dur, own in zip(self.name, self.durations(), self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
        return out

    def dump(self, path) -> None:
        """Write every span as columns: name, parent, and start and end in
        integer nanoseconds after the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": [round((t - t0) * 1e9) for t in self.start],
                "end_ns": [round((t - t0) * 1e9) for t in self.end],
            }, fh, separators=(",", ":"))
