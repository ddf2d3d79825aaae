"""Spans recorded by the benchmark around its calls into safelc.

The workloads never call a layer function directly: they go through
`calls.span(name, fn, *args)`.  `Untraced` forwards the call and nothing
else, so end-to-end runs pay one extra Python call per layer call.
`Tracer` records a span per call (name, start, end, parent span, item id,
optional work count) in memory; `write` saves them once the run is over,
and `self_times` derives per-layer self time from them.
"""

import gzip
import json
import time
from collections import defaultdict


class Untraced:
    def begin_item(self, label):
        pass

    def end_item(self):
        pass

    def span(self, name, fn, *args):
        return fn(*args)

    def tag(self, work):
        pass


class Tracer:
    """Spans as tuples (id, parent, item, name, start, end, work)."""

    def __init__(self):
        self.spans = []
        self.items = []  # item id -> label
        self._stack = []
        self._last = None

    def begin_item(self, label):
        self.items.append(label)
        self._stack.append((len(self.spans), "bench.item", time.perf_counter()))
        self.spans.append(None)  # filled in by end_item

    def end_item(self):
        self._close(time.perf_counter())

    def span(self, name, fn, *args):
        self._stack.append((len(self.spans), name, time.perf_counter()))
        self.spans.append(None)
        try:
            return fn(*args)
        finally:
            self._close(time.perf_counter())

    def _close(self, end):
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[sid] = (sid, parent, len(self.items) - 1, name, start, end, None)
        self._last = sid

    def tag(self, work):
        """Attach a work count (such as occurrences visited) to the span
        that closed last."""
        self.spans[self._last] = self.spans[self._last][:6] + (work,)

    def self_times(self):
        """Seconds per span name, each span's duration less the part of it
        its children cover (children never overlap: one thread)."""
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, _, _, name, start, end, _ in self.spans:
            out[name] += end - start - child_time[sid]
        return dict(out)

    def write(self, path):
        """One JSON object per line: the item table, then every span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "item", "name", "start", "end", "work")
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"items": self.items}) + "\n")
            for s in self.spans:
                out.write(json.dumps(dict(zip(fields, s))) + "\n")
