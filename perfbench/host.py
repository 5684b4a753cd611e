"""Host speed: which CPU to run on, and the speed timings are read at.

The CPUs of a shared host run in fast and slow phases, each CPU its own,
from a fraction of a second to minutes long: the same loop takes up to
1.7x as long, in CPU time as much as in wall time.  Repeating work
inside one run cannot filter out a phase that outlasts the run, so the
untraced runs read every latency at a reference speed instead.

While timed work runs, a :class:`SpeedMeter` times a fixed 1-2 ms
kernel fifty times a second, from a ``SIGALRM`` handler between two
bytecodes of the work, on the CPU the work is pinned to.  A
:class:`Window` is a block of timed work (one scenario, or a few dozen
serving ticks); its ``factor`` is the mean kernel time inside it over
:data:`REFERENCE_S`, and its latencies divided by ``factor`` read at
reference speed.  On a 2-CPU container the log-times of a 2.5-4 s
scenario and of the kernel samples taken inside it correlated at
0.98-0.99 across repeats, and the spread of the scenario's time
(interquartile range over median) fell from 0.10-0.13 to 0.05; timing
the kernel only at the ends of such a scenario correlated at 0.72-0.83.
The kernel mixes per-element numpy dispatch (as in the program's SGD
and per-round loops), pure-Python arithmetic and a small sort, and is
the benchmark's own code, so no change to the program moves it.  The
meter's clock leaves out the time spent sampling, so the latencies do
not include it.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter
from typing import Any, List, Optional

import numpy as np

#: The CPUs this process may run on, before any pinning.
CPUS = tuple(sorted(os.sched_getaffinity(0)))
#: Seconds between two timer samples of the kernel.
SAMPLE_PERIOD_S = 0.02
#: Seconds the kernel takes at the speed timings are reported at: about
#: its median on a 2-CPU 2.1 GHz Xeon container, so timings read close
#: to wall-clock seconds there.
REFERENCE_S = 0.0015

_ROWS = np.random.default_rng(1).random((200, 20))
_KEYS = np.random.default_rng(2).random(5_000)


def pick_cpu() -> None:
    """Pin this process to the allowed CPU that runs a short loop fastest."""
    speeds = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        costs = []
        for _ in range(2):
            t0 = perf_counter()
            acc = 0
            for i in range(20_000):
                acc += i * i
            costs.append(perf_counter() - t0)
        speeds.append((min(costs), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def kernel() -> float:
    """Seconds for one pass of the fixed speed kernel."""
    rng = np.random.default_rng(0)
    w = np.zeros(_ROWS.shape[1])
    t0 = perf_counter()
    for _ in range(150):
        row = _ROWS[rng.integers(len(_ROWS))]
        w *= 0.999
        if row @ w < 1.0:
            w += 0.001 * row
    acc = 0
    for i in range(5_000):
        acc += i * i
    np.sort(_KEYS)
    return perf_counter() - t0


class SpeedMeter:
    """Kernel timings taken while timed work runs.

    Used as a context manager: inside it, ``SIGALRM`` samples the kernel
    every :data:`SAMPLE_PERIOD_S`.  :meth:`clock` is ``perf_counter``
    less the time spent sampling.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_: Any) -> None:
        """Time the kernel once (also the signal handler)."""
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        t0 = perf_counter()
        self.readings.append(kernel())
        self.spent += perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """Seconds on ``perf_counter``, less those spent sampling."""
        return perf_counter() - self.spent

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Window:
    """A block of timed work on the fastest CPU, and how fast that CPU ran.

    Entering pins this process to the fastest allowed CPU and samples
    the kernel; leaving samples it again and
    unpins.  ``factor`` is the mean of the kernel samples taken in the
    window over :data:`REFERENCE_S`; ``clock`` is the clock to time the
    window's latencies with.  Without a meter (the traced run) both are
    plain: ``factor`` is 1 and ``clock`` is ``perf_counter``.
    """

    def __init__(self, meter: Optional[SpeedMeter]) -> None:
        self.meter = meter
        self.clock = perf_counter if meter is None else meter.clock
        self.factor = 1.0

    def __enter__(self) -> "Window":
        pick_cpu()
        if self.meter is not None:
            self._first = len(self.meter.readings)
            self.meter.sample()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.meter is not None:
            self.meter.sample()
            inside = self.meter.readings[self._first:]
            self.factor = statistics.mean(inside) / REFERENCE_S
        os.sched_setaffinity(0, CPUS)
