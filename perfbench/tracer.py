"""Spans recorded from outside the program by wrapping module attributes.

A span is (name, start, end, parent index).  Spans are kept in memory;
the caller serializes ``Tracer.spans`` when the run ends.  Only one
thread runs the solver, so a stack gives each span its parent and
children of one span never overlap in time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Installs timing wrappers on attributes and records their spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call.

        ``on_result(result, args)`` runs after the span has closed, so
        counters it records are not timed as part of ``fn``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = self.clock()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by its traced version until ``restore``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Sum over spans of each name of duration minus child coverage."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]
