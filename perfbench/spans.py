"""Spans around the benchmark's calls into the library, kept in memory.

Every call the benchmark makes into a library layer goes through
``tracer.call(name, fn, *args)``. Span names are ``<layer>.<function>``, where
the layer is the library module (io, generate, scheme, render, oracle, cli)
and ``bench.op`` is the root span of one workload operation. An untraced run
uses ``NullTracer``, which calls straight through, so both runs execute the
same benchmark code. Spans are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from pathlib import Path

LAYERS = ("bench", "io", "generate", "scheme", "render", "oracle", "cli")


class NullTracer:
    """Tracing off: no spans, one extra Python call per layer call."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, fn, *args):
        return fn(*args)


class Tracer:
    """Records [name, start_ns, end_ns, parent, request] per call.

    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``request`` the number of the workload operation the span belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1

    def op(self, fn, *args):
        self._request += 1
        return self.call("bench.op", fn, *args)

    def call(self, name, fn, *args, **kwargs):
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> dict[str, int]:
        """Nanoseconds of self time per layer: a span's duration minus the
        time its child spans cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return out

    def write(self, path: Path) -> None:
        """One JSON array per line: id, parent, request, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                f.write(json.dumps([i, parent, request, name, start, end]) + "\n")
