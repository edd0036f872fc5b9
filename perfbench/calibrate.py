"""Machine-speed calibration.

The machines this runs on change speed by a quarter or more within
seconds, in CPU time as much as in wall time, so raw times from two runs
are not comparable.  While a run measures, a periodic timer signal takes
a short sample of a fixed pure-Python kernel every ``INTERVAL_S``,
inside operations as well as between them, and every reported time is
scaled to a reference machine on which one sample takes ``REFERENCE_S``.
Over 20 s windows, operation time over sample time varied by 5% where
raw operation time varied by 55%.  The kernel does the same kind of work as the library, exact search over
an intersection matrix, but shares no code with it, so a change to the
library cannot move it.  It runs without recursion, so a sample taken
inside a deep library search adds only a few frames to its depth.

The same signal enforces the per-operation time limit.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import generate as gen

REFERENCE_S = 0.020
INTERVAL_S = 0.2

_OCTAHEDRON = [
    ("n", "a", "b"), ("n", "b", "c"), ("n", "c", "d"), ("n", "d", "a"),
    ("s", "a", "b"), ("s", "b", "c"), ("s", "c", "d"), ("s", "d", "a"),
]
_PIECE = gen.subdivide(_OCTAHEDRON)[:24]
_SOLUTIONS = 4


def _count_preserving(m: list[list[int]]) -> int:
    """Number of bijections g with m[g(i)][g(j)] == m[i][j]."""
    n = len(m)
    image = [0] * n
    used = [False] * n
    start = [0] * (n + 1)
    found = 0
    depth = 0
    while depth >= 0:
        if depth == n:
            found += 1
            depth -= 1
            used[image[depth]] = False
            continue
        row = m[depth]
        for j in range(start[depth], n):
            col = m[j]
            if not used[j] and all(col[image[i]] == row[i] for i in range(depth)):
                image[depth] = j
                used[j] = True
                start[depth] = j + 1
                start[depth + 1] = 0
                depth += 1
                break
        else:
            start[depth] = 0
            depth -= 1
            if depth >= 0:
                used[image[depth]] = False
    return found


def sample() -> float:
    """Seconds for one run of the kernel.  The garbage collector is held
    off, so that a sample never pays for collecting the library's objects."""
    gc.disable()
    try:
        begin = perf_counter()
        found = _count_preserving(gen.matrix(_PIECE))
        elapsed = perf_counter() - begin
    finally:
        gc.enable()
    assert found == _SOLUTIONS, found
    return elapsed


def scale(samples: list[float]) -> float:
    """Factor from this machine's seconds to reference seconds."""
    return REFERENCE_S / statistics.mean(samples)


class OpTimeout(BaseException):
    """An operation ran over its limit.  A BaseException, so that no
    ``except Exception`` in the library swallows it."""


class Sampler:
    """Periodic calibration samples and a clock that leaves them out.

    Use as a context manager around the measured part of a run.  Set
    ``deadline`` (on ``clock()``) while an operation runs to have the
    signal raise OpTimeout once it passes.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.deadline: float | None = None
        self._spent = 0.0  # wall time spent sampling
        self._busy = False

    def clock(self) -> float:
        return perf_counter() - self._spent

    def take(self) -> None:
        self._busy = True
        begin = perf_counter()
        self.samples.append(sample())
        self._spent += perf_counter() - begin
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self.take()
        if self.deadline is not None and self.clock() > self.deadline:
            self.deadline = None
            raise OpTimeout

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
