"""Host speed, sampled on the benchmark's own CPU while it runs.

The benchmark's host is shared, and its speed drifts by 20-45% within
minutes: a fixed pure-Python loop takes anywhere from 0.23 to 0.50 s.
That drift, not the program, then decides how far apart two runs of the
same code land. A ``Sampler`` therefore interrupts the process every
``INTERVAL_S`` (``SIGALRM``) and times one small fixed task, on the CPU
and at the moments the program runs. The tasks take turns: an
interpreter loop, dictionary lookups, small numpy operations and a sweep
over 4 MB of memory, because the program mixes all four and the host's
drift does not slow them alike. Over a timed interval, each kind's
reference time over its mean time is its speed, their geometric mean is
the interval's scale, and

    (wall time - sampling time) * scale

is the time the program would have taken at the reference speed; CPU
time is scaled by the same factor. The samples are timed in CPU time: the
host most often preempts the process at the timer interrupt that starts
a sample, and one preemption stretches a 0.5 ms sample's wall time many
times over, but not its CPU time. The tasks are code of the benchmark,
not of the package, so a change to the package moves the scaled time as
it moves the raw one. The samples take about 1% of the wall time, and
that share is taken out. Their tables add about 12 MB to the process.

Python runs the handler between bytecodes, so a long call into numpy or
BLAS delays the next sample until it returns; the samples are fewer
there, not wrong.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.05
LOOP_ITERATIONS = 5000
LOOKUPS = 1500
TABLE_SIZE = 50_000
ARRAY_SIZE = 2000
ARRAY_REPEATS = 15
SWEEP_FLOATS = 500_000
# Each task's time at the reference speed: about the median of what a
# shared 2-CPU x86-64 Xeon host with Python 3.11 and numpy 2.4 gave, so
# that scaled times read like that host's seconds.
REFERENCE_S = {"loop": 4.1e-4, "lookups": 6.6e-4, "arrays": 4.9e-4, "sweep": 6.6e-4}


@dataclass
class Interval:
    """A timed interval, without the samples taken in it, and the scale
    that takes its times to the reference speed."""

    wall_s: float
    cpu_s: float
    scale: float

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def _scale(samples: list[tuple[str, float, float]]) -> float:
    """Geometric mean over the kinds of task of reference time over mean
    CPU time; 1 without samples."""
    by_kind: dict[str, list[float]] = {}
    for kind, _, cpu in samples:
        by_kind.setdefault(kind, []).append(cpu)
    if not by_kind:
        return 1.0
    logs = [math.log(REFERENCE_S[kind] * len(ds) / sum(ds)) for kind, ds in by_kind.items()]
    return math.exp(sum(logs) / len(logs))


class Sampler:
    """Samples the host speed while active; a context manager that
    restores the previous ``SIGALRM`` handler and timer on every way out."""

    def __init__(self):
        # (kind, wall time, CPU time) of every sample
        self.samples: list[tuple[str, float, float]] = []
        self._table = {(i, i * 7 % 1000): i for i in range(TABLE_SIZE)}
        self._keys = list(self._table)[::TABLE_SIZE // LOOKUPS][:LOOKUPS]
        self._array = np.linspace(0.0, 1.0, ARRAY_SIZE)
        self._sweep = np.ones(SWEEP_FLOATS)
        self._tasks = [("loop", self._loop), ("lookups", self._lookups),
                       ("arrays", self._arrays), ("sweep", self._sweep_memory)]
        self._next = 0
        self._previous = None

    @staticmethod
    def _loop() -> None:
        s = 0
        for i in range(LOOP_ITERATIONS):
            s += i * i

    def _lookups(self) -> None:
        table = self._table
        s = 0
        for key in self._keys:
            s += table[key]

    def _arrays(self) -> None:
        x = self._array
        for _ in range(ARRAY_REPEATS):
            np.sin(x) + x * 2.0

    def _sweep_memory(self) -> None:
        self._sweep.sum()

    def _handler(self, signum, frame) -> None:
        kind, task = self._tasks[self._next]
        self._next = (self._next + 1) % len(self._tasks)
        t0, c0 = time.perf_counter(), time.thread_time()
        task()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.samples.append((kind, t1 - t0, c1 - c0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        """The start of a timed interval."""
        return time.perf_counter(), time.process_time(), len(self.samples)

    def measure(self, start: tuple[float, float, int]) -> Interval:
        """The interval since ``start``. One too short to hold a sample of
        every kind also uses the latest samples before it for its scale."""
        t1, c1, n = time.perf_counter(), time.process_time(), len(self.samples)
        t0, c0, k = start
        taken = self.samples[k:n]
        used = self.samples[max(0, min(k, n - len(self._tasks))):n]
        return Interval(
            wall_s=t1 - t0 - sum(s[1] for s in taken),
            cpu_s=c1 - c0 - sum(s[2] for s in taken),
            scale=_scale(used))
