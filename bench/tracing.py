"""Spans and counters recorded around curvespace's public entry points.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call (name, start, end, enclosing span, op index) and bump
counters, then puts every original object back.  Nothing under ``src/``
knows about it: the wrappers sit in the namespaces the callers look the
names up in, so ``elastica.build_curve`` and ``sobolev_metric.build_curve``
are patched separately but report under one span name.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top level
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn, *, before=None, after=None):
        """``fn`` recording a span ``name`` and ``<name>.calls`` per call.

        ``before(args, kwargs)`` may return replacement arguments;
        ``after(result)`` sees the return value.  An exception is counted
        as ``<name>.failed.<ExceptionClass>`` and re-raised.
        """

        def traced(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.failed.{type(exc).__name__}"] += 1
                raise
            finally:
                self.spans[idx] = Span(name, start, time.perf_counter(), parent, self.op)
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval
    that its direct child spans cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    totals: dict[str, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        totals[s.name] += (s.end - s.start) - covered_length(children[idx], s.start, s.end)
    return dict(totals)
