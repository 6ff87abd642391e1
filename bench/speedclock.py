"""A clock that runs at the speed of a fixed reference computation.

The two-core host this benchmark was built on shares its cores with other
machines: the same fixed computation takes from 1x to 2x its quiet time, in
phases that last from seconds to minutes (README.md gives figures).  Wall
times of one run then differ from the next by 15-30 % whatever statistic a
run reports, because a whole run can fall into a slow phase.

SpeedClock samples a small reference computation every 0.1 s, from a SIGALRM
handler so that the samples continue inside long calls such as a 10 s RK4
settle.  Between samples the clock advances at nominal / (mean of the last
10 reference durations) times wall time, where nominal is the reference's
duration on the quiet host, so an interval reads as the seconds it would
have taken at quiet speed.  The sampling itself is excluded.  The reference
does not use hhcycles, so a change to the package moves the clock's
readings only by changing how long the package runs.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REFERENCE_NOMINAL_S = 1.3e-3   # reference duration on the quiet host
SAMPLE_INTERVAL_S = 0.1
WINDOW = 10                    # samples in the running mean

_clock = time.perf_counter


def reference_work():
    """Fixed small-array numpy and interpreter work, like one RK4 stage."""
    x = np.array([-5.0, 0.3, 0.6, 0.05])
    J = np.eye(4)
    acc = 0.0
    for _ in range(200):
        k = np.exp(x / 80.0) * (1.0 - x) - np.expm1(-0.1 * x)
        x = x + 1e-6 * (J @ k)
        acc += math.sqrt(abs(float(x[0])) + 1.0)
    return acc


class SpeedClock:
    """Reference-speed seconds; use now() in place of time.perf_counter()."""

    def __init__(self, nominal=REFERENCE_NOMINAL_S, interval=SAMPLE_INTERVAL_S):
        self.nominal = nominal
        self.interval = interval
        self.samples = []
        self.sampling_s = 0.0
        self._state = (0.0, _clock(), 1.0)   # (reading, wall at reading, rate)
        self._previous = None

    def _sample(self):
        t0 = _clock()
        reference_work()
        dt = _clock() - t0
        self.samples.append(dt)
        window = self.samples[-WINDOW:]
        return t0, self.nominal * len(window) / sum(window)

    def start(self):
        reference_work()   # first calls pay one-off numpy set-up
        t0, rate = self._sample()
        self._state = (0.0, _clock(), rate)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame):
        reading, wall, rate = self._state
        t0, new_rate = self._sample()
        # the interval just ended ran between the two rate estimates
        reading += (t0 - wall) * 0.5 * (rate + new_rate)
        t1 = _clock()
        self.sampling_s += t1 - t0
        self._state = (reading, t1, new_rate)

    def now(self):
        reading, wall, rate = self._state
        return reading + (_clock() - wall) * rate

    def slowdown(self):
        """Median reference duration over its nominal: 1 on the quiet host."""
        if not self.samples:
            return 1.0
        s = sorted(self.samples)
        return s[len(s) // 2] / self.nominal
