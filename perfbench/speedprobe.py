"""Machine-speed probe: a fixed kernel timed between the program's steps.

The shared machine the benchmark was defined on (2 vCPUs of an Intel Xeon)
switches between a fast and a slow state, about 1.6x apart, every few
seconds.  Wall times of runs of 15-30 s then differ by 20-35 % from run to
run, depending on the share of each run spent in each state.  The probe
measures that state as the run goes: a fixed kernel of small-array numpy and
scalar Python work, the kind of work the program does, is timed at the start
and end of every op and set-up, and after the program's steps (at most one
probe per `MIN_GAP_S`).

`SpeedProbe.scaled` splits a measured interval into the pieces between
consecutive probes and scales each piece by ``REF_S / p``, where ``p`` is the
median duration of the `NEIGHBOURS` probes on each side of it.  The median
keeps a single disturbed probe from moving the scale; the states last far
longer than the 1 s or so that those probes span.  A scaled time is the
time the interval would have taken at the speed at which the probe takes
`REF_S`.
Probe time itself is never counted.  The kernel is benchmark code, so at
any one machine speed a change to the program moves a scaled time by the
same factor as the wall time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The probe's duration at the reference speed.  It sets only the scale: it is
# close to the probe's median on the machine the benchmark was defined on, so
# that scaled times read close to wall times there.
REF_S = 0.002

# Least time between two probes taken after program steps; it bounds the
# probe's share of a run when steps are short.
MIN_GAP_S = 0.1

# Probes on each side of a piece whose median duration scales it.
NEIGHBOURS = 3

# About 70 % of the probe's time is small-array numpy and 30 % scalar Python.
# With that mix its time follows trace_paths' time from one state to the
# other on the machine above: log(trace time) against log(probe time) has a
# slope of 0.98 (numpy alone: 0.92, Python alone: 1.29).
_NUMPY_ITERATIONS = 33
_PYTHON_ITERATIONS = 4000
_A = np.array([0.3, -0.2, 0.9])
_B = np.array([-0.5, 0.4, 0.1])


def _kernel() -> float:
    acc = 0.0
    for _ in range(_NUMPY_ITERATIONS):
        c = np.cross(_A, _B)
        acc += float(c @ _A)
    for i in range(_PYTHON_ITERATIONS):
        acc += (i * 0.5) % 7.0
    return acc


class SpeedProbe:
    """Probe samples of one run, and the scaling of intervals by them."""

    def __init__(self):
        self.samples: list = []   # (start, end) of each probe, in time order
        self._table = ([], [], [])

    def __call__(self):
        """Take a probe now."""
        t0 = time.perf_counter()
        _kernel()
        self.samples.append((t0, time.perf_counter()))

    def after_step(self):
        """Take a probe unless the last one ended less than `MIN_GAP_S` ago."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= MIN_GAP_S:
            self()

    def durations(self) -> list:
        return [end - start for start, end in self.samples]

    def _gaps(self) -> tuple:
        """(probe starts, probe ends, local probe duration of each gap), kept
        until another probe is taken.  Gap i runs from ends[i] to starts[i + 1]."""
        if len(self._table[0]) != len(self.samples):
            durations = self.durations()
            local = [statistics.median(durations[max(0, i + 1 - NEIGHBOURS):i + 1 + NEIGHBOURS])
                     for i in range(len(durations) - 1)]
            self._table = ([s for s, _ in self.samples], [e for _, e in self.samples], local)
        return self._table

    def _pieces(self, t0: float, t1: float):
        """(length, local probe duration) of each part of [t0, t1] between two probes."""
        starts, ends, local = self._gaps()
        i = max(0, bisect.bisect_right(ends, t0) - 1)   # no earlier gap reaches t0
        while i < len(local) and ends[i] < t1:
            lo, hi = max(t0, ends[i]), min(t1, starts[i + 1])
            if hi > lo:
                yield hi - lo, local[i]
            i += 1

    def raw(self, t0: float, t1: float) -> float:
        """Wall time in [t0, t1] outside the probes."""
        return sum(length for length, _ in self._pieces(t0, t1))

    def scaled(self, t0: float, t1: float) -> float:
        """Time in [t0, t1] outside the probes, scaled to the reference speed."""
        return sum(length * REF_S / probe for length, probe in self._pieces(t0, t1))
