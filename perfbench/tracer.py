"""In-memory spans recorded by wrapping module attributes from outside.

A span has a name, a start, an end and a parent. A span opened in a
thread that has no span open of its own (a pool worker) takes as parent
the span the tracer's owning thread has open, which is the call that is
waiting on the pool.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._local.stack = self._owner_stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None):
        """Return fn recording a span per call.

        ``describe(args, kwargs, result)`` returns the span's info dict; it
        runs after the span has ended, and only when fn returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            returned = False
            result = None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = (
                    describe(args, kwargs, result)
                    if describe is not None and returned
                    else None
                )
                tracer.spans.append(Span(sid, name, parent, start, end, info))

        return traced

    def install(self, points) -> None:
        """Replace ``module.attr`` by a traced wrapper for each point.

        ``points`` holds (module, attr, span name, describe or None).
        """
        for module, attr, name, describe in points:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, describe))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }
