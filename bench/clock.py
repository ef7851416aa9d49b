"""Op timing corrected for the speed of a shared machine.

On a shared host the same code can run at two speeds, about 1.7x apart,
for seconds or minutes at a time as neighbours come and go. Over a
benchmark session this moves wall times by far more than the bounds in
BENCHMARK.json. So a fixed pure-interpreter probe, independent of the
package, is run from a timer signal every PERIOD seconds while the
benchmark measures. An interval's speed factor is the mean probe time in
it (widened by one period on each side) over PROBE_REF_S, and a
calibrated time is the wall time, less the probes that ran inside it,
divided by that factor: the time the work would take with the machine at
the speed at which the probe takes PROBE_REF_S.

The probe runs on the benchmark's main thread and takes the interpreter
lock. While package code runs on that thread alone, the probe only pauses
it. While package threads run beside it, the probe would compete with them
for the cores, and the factor would then depend on how the package uses its
threads. So ops of such workloads are timed quiet: no probe runs inside
them, and a burst of probes runs just before and just after each one.

A fresh interpreter's import of the package is mostly file reads, page
faults and dynamic linking, and tracks the probe poorly. It is calibrated
instead against a fixed reference import in another fresh interpreter, run
next to it (import_ratio).
"""

import bisect
import os
import signal
import subprocess
import sys
import time

PERIOD = 0.1
# The probe's time on the machine that recorded baseline.json, in its fast
# state. A constant, so that calibrated times compare across runs.
PROBE_REF_S = 1.1e-3
# Probes run before and after each quiet op.
BURST = 5
# A fixed import, and roughly its time in a fresh interpreter on the
# machine that recorded baseline.json. The package's import is numpy,
# scipy.linalg and its own modules, so a change to the package's imports
# shows against it.
REFERENCE_IMPORT = "import numpy, scipy.linalg"
IMPORT_REF_S = 0.3


def probe():
    """Seconds for a fixed piece of interpreter work.

    The interpreter's thread switch interval is raised for its duration so
    that no other thread takes the lock in the middle of it.
    """
    old = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(15000):
            s += i * i % 7
        return time.perf_counter() - t0
    finally:
        sys.setswitchinterval(old)


class Clock:
    """Samples the probe while running; see the module docstring."""

    def __init__(self):
        self.starts = []
        self.probes = []
        self.probe_total = 0.0
        self.last = None
        self.running = False
        self._quiet = False
        self._previous = None

    def _tick(self, signum=None, frame=None):
        if not self._quiet:
            self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.starts.append(t0)
        self.probe_total += time.perf_counter() - t0

    def start(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.running = False
        self._tick()

    def _burst(self):
        """BURST samples, with the timer's samples held off meanwhile."""
        quiet, self._quiet = self._quiet, True
        for _ in range(BURST):
            self._sample()
        self._quiet = quiet

    def timed(self, fn, quiet=False):
        """Run fn() and return its result; the interval goes to self.last.

        An interval is (start, end, wall seconds less the probes inside).
        It is recorded even when fn raises. With quiet, no probe runs
        inside fn and a burst runs on each side of it, if the clock runs.
        """
        quiet = quiet and self.running
        if quiet:
            self._burst()
            self._quiet = True
        before = self.probe_total
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.last = (t0, t1, t1 - t0 - (self.probe_total - before))
            if quiet:
                self._quiet = False
                self._burst()

    def factor(self, t0, t1):
        """Mean probe time around [t0, t1] over PROBE_REF_S."""
        lo = bisect.bisect_left(self.starts, t0 - PERIOD)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD)
        window = self.probes[lo:hi] or [self.probes[min(lo, len(self.probes) - 1)]]
        return sum(window) / len(window) / PROBE_REF_S

    def calibrate(self, interval):
        """Calibrated seconds of an interval recorded by timed()."""
        t0, t1, wall = interval
        return wall / self.factor(t0, t1)


def _child_seconds(code, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def import_ratio(code, env):
    """Seconds for a fresh interpreter to run `code`, over the seconds it
    takes to run REFERENCE_IMPORT, measured one right after the other."""
    env = dict(os.environ, **env)
    return _child_seconds(code, env) / _child_seconds(REFERENCE_IMPORT, env)
