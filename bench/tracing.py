"""Spans around the public calls a benchmark workload makes into each layer.

A span records (name, start, end, parent, work). The benchmark wraps the
attribute a caller looks up -- ``verify.sample_mixed`` rather than
``qubit.sample_mixed`` -- so a call made from inside another wrapped call
gets that call's span as its parent. Spans stay in memory; the caller
reduces them to per-layer totals when its unit of work ends.

Wrapped calls must come from a single thread: the open-span stack is not
shared between threads. The library's worker threads only run private scan
chunks, which are never wrapped.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    work: int = 0


class Tracer:
    """Collects spans from the functions returned by :meth:`wrap`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn: Callable, name, work: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording a span per call.

        ``name`` is a span name, or a callable taking the call's arguments
        and returning one. ``work`` maps the arguments to a computed work
        count stored on the span.
        """
        stack, spans = self._open, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name(*args, **kwargs) if callable(name) else name,
                0,
                0,
                stack[-1] if stack else None,
                work(*args, **kwargs) if work is not None else 0,
            )
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()

        return traced

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start afresh."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _covered(lo: int, hi: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(span.start, span.end, children.get(i, []))
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per span name: busy and self time in ns, call count, summed work."""
    totals: dict[str, dict[str, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"busy_ns": 0, "self_ns": 0, "calls": 0, "work": 0})
        t["busy_ns"] += span.end - span.start
        t["self_ns"] += own
        t["calls"] += 1
        t["work"] += span.work
    return totals
