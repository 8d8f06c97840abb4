"""In-memory spans recorded by the benchmark around each call into spineid.

A span holds its name, start and end (``perf_counter_ns``), the index of the
span that was open when it started, and the case or call id it served. The
first part of a span name is the layer (``io.load_case`` belongs to ``io``).
A disabled tracer hands out one shared no-op context, so untraced runs pay
only a method call per span.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

_NOOP = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, op):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0, 0, stack[-1] if stack else None, op]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans and counters; both stay empty when ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, op=None):
        if not self.enabled:
            return _NOOP
        return _Span(self, name, op)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def durations_ms(self, name: str, op=None) -> list[float]:
        """Durations of the spans called ``name``, only those for ``op`` if given."""
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name and (op is None or s[4] == op)]

    def self_ms(self) -> dict[str, float]:
        """Self time per layer: span time not covered by its child spans."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name.split(".", 1)[0]] += (end - start - child_ns[i]) / 1e6
        return dict(totals)

    def records(self) -> list[dict]:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]
