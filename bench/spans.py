"""Span recorder for the benchmark's traced run, and the self-time arithmetic.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and whether it raised. Spans stay
in memory while the run executes and are written out once it ends.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    error: bool


class SpanRecorder:
    """Records a span per call of every function passed through ``wrap``.

    Calls nest on one thread, so the innermost open span is the parent of
    the next call. ``count`` hooks read a call's result and add to named
    counters, so that work is counted where it is done.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.uncounted: set[str] = set()
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_, clock, counters = self.spans, self._open, self.clock, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, open_[-1] if open_ else None, False]
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                open_.pop()
            if count is not None:
                try:
                    amounts = count(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    self.uncounted.add(name)  # a changed return type must not stop the run
                    amounts = {}
                for key, amount in amounts.items():
                    counters[key] = counters.get(key, 0) + amount
            return result

        return wrapper


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(span.start, span.end, kids)
        for span, kids in zip(spans, children)
    ]


def untraced_time(start: float, end: float, spans: list[Span]) -> float:
    """Time in [start, end] outside every root span: the caller's own glue."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (end - start) - covered(start, end, roots)
