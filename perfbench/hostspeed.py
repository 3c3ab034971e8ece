# perfbench/hostspeed.py
# Host-speed probe for the timed rounds. On a shared host the speed a core
# gives this process changes by up to ~1.5x within seconds and can stay
# changed for minutes (most likely other tenants' load on the same physical
# core), far more than the bounds the benchmark must resolve. The other
# vCPU does not see the same changes, so the probe runs in this process: a
# SIGALRM handler times a fixed reference kernel every INTERVAL_S of wall
# time, on the same core and between the same bytecodes as the sweep. A
# round's time is then scaled by how much slower than NOMINAL_S the kernel
# ran during it.

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Scaled times are seconds on a core where the kernel takes NOMINAL_S (about
# its usual time on this host). A constant, so that scaled times compare
# across runs and commits, and a change to simcf moves them one for one.
NOMINAL_S = 0.8e-3

# Fixed operands, never drawn from a random stream the program uses.
_PHASES = np.linspace(0.0, 2.0 * np.pi, 5 * 64).reshape(5, 64)
_MIX = np.exp(1j * np.add.outer(np.arange(64.0), np.arange(64.0)) / 64.0)


def kernel():
    """Small complex array calls and scalar Python in about equal parts,
    ~0.8 ms. Against the host's speed changes, the log time of table1-opt
    cells and fig3-closed-form rounds had a slope of 0.8-1.0 on the scalar
    part's and 1.1-1.2 on the array part's, so their mix tracks at about 1.
    Uses no simcf code, so a change to simcf cannot move it."""
    acc = 0.0
    for step in range(12):
        field = np.exp(1j * (_PHASES + 0.01 * step)) @ _MIX
        acc += float(np.abs(field).sum())
        for k in range(200):
            acc += (k * 0.5) ** 0.5
    return acc


def kernel_seconds(repeats=31):
    """Harmonic mean time of the kernel over repeats calls, after one warm
    call (see Probe.slowdown)."""
    kernel()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.harmonic_mean(times)


class Probe:
    """While active, times kernel() every INTERVAL_S from a SIGALRM handler.

    window() -> (samples, stolen_s): the kernel times recorded since the
    previous call and the wall time the handler took in between, which the
    caller subtracts from its own span.
    """

    def __init__(self):
        self.samples, self.stolen_s = [], 0.0
        self._mark = (0, 0.0)
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.stolen_s += time.perf_counter() - start

    def __enter__(self):
        kernel()   # warm: first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.window()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self):
        n, stolen = self._mark
        self._mark = (len(self.samples), self.stolen_s)
        return self.samples[n:], self.stolen_s - stolen

    def slowdown(self, samples):
        """How much slower than NOMINAL_S the kernel ran over a span, from
        its samples there, or from one timed now when the span was too short
        to hold any. The harmonic mean, because work done is the integral of
        speed, 1/time, over the span: a span split between a fast and a slow
        state is weighed by time, where a median would pick one state."""
        if not samples:
            start = time.perf_counter()
            kernel()
            samples = [time.perf_counter() - start]
        return statistics.harmonic_mean(samples) / NOMINAL_S
