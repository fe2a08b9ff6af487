"""In-memory spans around the benchmark's calls into the library, and the
statistics both the worker and the launcher report.

A span records name, start, end, parent and op id.  Spans stay in memory
until the run ends; `write` dumps them as JSON lines with each span's self
time (its duration minus the time its child spans cover) and, for the
spans chosen for it, the peak of the allocations made inside the span.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile, count): the largest sample with >= 10 samples above it.

    That is the 11th largest, at percentile 100*(count-10)/count.  With 10
    samples or fewer no such sample exists and the maximum is returned at
    percentile 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


class Span:
    __slots__ = ("index", "name", "op", "parent", "start", "end", "child_s", "failed",
                 "alloc_peak")

    def __init__(self, index, name, op, parent):
        self.index = index
        self.name = name
        self.op = op
        self.parent = parent
        self.child_s = 0.0
        self.failed = False
        self.alloc_peak = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans; `span(name)` is a context manager yielding the Span.

    The span's name may be extended inside the block (for instance with the
    provenance a call returned) before the span closes.  Spans opened under
    a name in `memory_spans` run with tracemalloc on and record the peak of
    the allocations made inside them; tracemalloc is off everywhere else, so
    its cost stays inside those spans.  Those spans must not nest.
    """

    def __init__(self, memory_spans=()):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None
        self.memory_spans = frozenset(memory_spans)

    def span(self, name):
        return _SpanContext(self, name)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.op, None if parent is None else parent.index)
        self.spans.append(span)
        self._stack.append(span)
        if name in self.memory_spans:
            tracemalloc.start()
        span.start = time.perf_counter()
        return span

    def _close(self, span, failed, tracked):
        span.end = time.perf_counter()
        span.failed = failed
        if tracked:
            span.alloc_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def write(self, path):
        """Dump every span as one JSON line; called once when the run ends."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.index, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "failed": s.failed,
                    "peak_alloc_mb": None if s.alloc_peak is None else s.alloc_peak / 1e6,
                }) + "\n")

    def layers(self):
        """name -> {calls, busy_s, p50_ms, fail, peak_alloc_mb} over non-root spans."""
        groups: dict[str, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                groups.setdefault(s.name, []).append(s)
        out = {}
        for name, spans in groups.items():
            peaks = [s.alloc_peak for s in spans if s.alloc_peak is not None]
            out[name] = {
                "calls": len(spans),
                "busy_s": sum(s.self_s for s in spans),
                "p50_ms": 1e3 * median([s.duration for s in spans]),
                "fail": sum(1 for s in spans if s.failed),
                "peak_alloc_mb": max(peaks) / 1e6 if peaks else 0.0,
            }
        return out


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.span, exc_type is not None,
                           self.name in self.tracer.memory_spans)
        return False
