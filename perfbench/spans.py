"""Spans recorded around calls into the program's layers.

A span is (name, start, end, parent). Spans stay in memory until the round
ends; the benchmark then writes them out with each span's self time, its
duration minus the part of it that child spans cover. Times come from
`time.monotonic`, which every process on the machine shares, so a child
process can measure from the moment its parent started it.
"""

import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; otherwise `span` only yields."""

    def __init__(self, enabled, root_start):
        self.enabled = enabled
        self.spans = []
        self._stack = [0] if enabled else []
        if enabled:
            self.spans.append({"name": "round", "start": root_start, "end": None, "parent": None})

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "start": time.monotonic(), "end": None, "parent": self._stack[-1]}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def record(self, name, start, end):
        """Add a span that ended before the tracer could time it."""
        if self.enabled:
            self.spans.append({"name": name, "start": start, "end": end, "parent": 0})

    def close(self, end):
        if self.enabled:
            self.spans[0]["end"] = end

    def total(self, prefix):
        """Summed duration of the spans whose name starts with ``prefix``."""
        return sum(s["end"] - s["start"] for s in self.spans[1:] if s["name"].startswith(prefix))


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(i, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out
