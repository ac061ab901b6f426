"""Spans around calls into the library, recorded from outside it.

A :class:`Tracer` replaces module attributes with wrappers that call the
original unchanged and record a span ``[name, start, end, parent, count]``.
Spans stay in memory until :meth:`Tracer.write`.  Wrappers exist only while
a :meth:`Tracer.installed` block runs, so untraced code pays nothing.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records nested spans; one thread, one caller at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` sizes its work."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, points):
        """Wrap every ``(name, owner, attr, count)`` point for the block."""
        saved = []
        try:
            for name, owner, attr, count in points:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, first: int = 0, last=None):
    """Per span name: total seconds, self seconds, calls and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; calls are made from one thread, so children never overlap.
    """
    last = len(spans) if last is None else last
    child_s = defaultdict(float)
    for pos in range(first, last):
        span = spans[pos]
        if span[PARENT] >= first:
            child_s[span[PARENT]] += span[END] - span[START]
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0,
                               "count": 0})
    for pos in range(first, last):
        span = spans[pos]
        dur = span[END] - span[START]
        row = out[span[NAME]]
        row["s"] += dur
        row["self_s"] += dur - child_s[pos]
        row["calls"] += 1
        row["count"] += span[COUNT]
    return out


def durations(spans, name, first: int = 0, count=None):
    """Durations of the spans called ``name`` (with that count, if given)."""
    return [s[END] - s[START] for s in spans[first:]
            if s[NAME] == name and (count is None or s[COUNT] == count)]
