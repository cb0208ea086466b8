"""Spans around the calls the benchmark makes into hybridad's modules.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``job`` the index of the job in the
workload's job list.  Spans are kept in memory and written out once, when
the run ends.  The untraced side of a run uses ``Tracer(enabled=False)``,
whose ``call`` is a plain function call.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and, when enabled, record a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()


def self_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Seconds per span name, each span counted minus its children.

    Only ``spans[first:]`` are summed; their parents must also lie in that
    slice.  Calls run on one thread, so child spans never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans[first:], start=first):
        out[name] += (end - start) - child_time[i]
    return dict(out)
