"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the program from outside:
each wrapper records one span (name, start, end, parent, run id, attributes)
with ``time.perf_counter`` and keeps it in memory. Wrappers exist only
inside ``with tracer:``; leaving the block puts every original attribute
back, so untraced runs execute the program's own, unwrapped code.

Self time of a span is its duration minus the part of that interval its
child spans cover; overlapping children are merged before subtracting, so
no interval is subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 at the top
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [s.duration - covered_length(children.get(i, ()))
            for i, s in enumerate(spans)]


class Tracer:
    """Collects spans from wrappers it installs on module and class
    attributes. Use as a context manager: wrappers are installed on entry
    and removed on exit, also when the block raises."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, Callable]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run_id, attrs or {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} is open")

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record one span around a block."""
        idx = self.open(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrapper(self, fn: Callable, name: str,
                before: Callable | None = None,
                after: Callable | None = None) -> Callable:
        """A function recording a span around ``fn``. ``before(args,
        kwargs)`` returns attributes for the span; ``after(span, result,
        args)`` may add more once ``fn`` has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.spans[idx], result, args)
            return result

        traced.__traced__ = True
        return traced

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]):
        """Plan to replace ``owner.attr`` by ``make(original)`` while the
        tracer is active. ``make`` runs at install time, so a later patch
        of the same attribute wraps the earlier wrapper."""
        self._plan.append((owner, attr, make))

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, make in self._plan:
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(getattr(owner, attr)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
