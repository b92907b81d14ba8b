"""A fixed reference kernel interleaved with the workload, to read the
machine's speed at the moments the workload ran.

On a shared host the same code can run at half speed for seconds to
minutes, and the process is not waiting then: its CPU time grows with its
wall time. Two runs minutes apart therefore differ by more than a program
change would. While rounds run, ``Interleave`` interrupts the workload
after every ``PERIOD_S`` seconds of its wall time (``SIGALRM``) and runs one
slice of ``kernel`` in the main thread, between two of the workload's
bytecodes. ``clock`` is ``perf_counter`` minus the time spent in slices, so the
workload's timings leave the slices out. A slice's duration then says how
fast the machine ran at that moment: the end-to-end times are scaled by
``NOMINAL_SLICE_S`` over the mean slice duration around them (over their
round for a round's time, over the last ``RECENT`` slices for a single
decision), i.e. reported at the speed at which one slice takes
``NOMINAL_SLICE_S``.

The kernel never changes with the program. It mixes the two kinds of work
the program does, interpreted loops over small Python lists and small
dense matrix products, touches no global random state, and allocates
little.
"""

from __future__ import annotations

import collections
import signal
import time

import numpy as np

# Wall seconds of workload between two slices, and the length a slice has by
# definition at the reference speed (about its median on the machine the
# benchmark was written on).
PERIOD_S = 0.075
NOMINAL_SLICE_S = 0.0105
SLICE_STEPS = 300
RECENT = 12

_rng = np.random.default_rng(0)
_W1 = _rng.standard_normal((152, 128))
_W2 = _rng.standard_normal((128, 144))
_X = _rng.standard_normal((8, 152))
_QUEUES = [list(range(i % 7)) for i in range(64)]


def kernel(steps: int = SLICE_STEPS) -> float:
    """One slice: rotate 64 short queues and run an 8-row two-layer
    product, ``steps`` times."""
    acc = 0.0
    for _ in range(steps):
        for q in _QUEUES:
            if q:
                acc += q[0] + len(q)
                q.append(q.pop(0))
        acc += float((np.tanh(_X @ _W1) @ _W2)[0, 0])
    return acc


def timed_slice() -> float:
    """Wall seconds of one kernel slice."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Interleave:
    """Context manager: while open, runs a kernel slice after every
    ``period_s`` seconds of wall time outside slices, and counts the slices
    and their time. The timer is re-armed after each slice, so slices
    never overlap."""

    busy_s = 0.0
    slices = 0
    recent: collections.deque = collections.deque(maxlen=RECENT)

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self._open = False
        self._previous = None

    def _slice(self, signum, frame) -> None:
        d = timed_slice()
        Interleave.recent.append(d)
        Interleave.busy_s += d
        Interleave.slices += 1
        if self._open:
            signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self) -> "Interleave":
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        self._open = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        self._open = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def clock() -> float:
    """``perf_counter`` without the time spent in kernel slices."""
    while True:
        busy = Interleave.busy_s
        now = time.perf_counter()
        if busy == Interleave.busy_s:  # no slice ran in between
            return now - busy


def mark() -> tuple[float, int]:
    """The slice time and count so far; two marks bound a round."""
    return Interleave.busy_s, Interleave.slices


def recent_speed():
    """``NOMINAL_SLICE_S`` over the mean of the last ``RECENT`` slices, or
    None before the first slice."""
    r = Interleave.recent
    return NOMINAL_SLICE_S * len(r) / sum(r) if r else None


def speed_factor(start: tuple[float, int], end: tuple[float, int]):
    """``NOMINAL_SLICE_S`` over the mean slice between two marks, or None
    when no slice ran between them."""
    n = end[1] - start[1]
    if n <= 0:
        return None
    return NOMINAL_SLICE_S / ((end[0] - start[0]) / n)
