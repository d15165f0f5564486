"""Host speed, measured with a fixed kernel that does not involve qgasgeo.

On the 2-vCPU Intel Xeon VM where the baseline was taken, the CPUs switch
between speeds for tens of seconds at a time (the same pure-Python loop takes
13.6 ms or 19.5 ms per call, in wall and in CPU time alike), which moves a
20-second run by up to 40%.  The benchmark
therefore times this kernel between items and scales every item time by
KERNEL_REF_S / (kernel time around it): the metrics are times at the speed
at which the kernel takes KERNEL_REF_S.

The kernel does numpy exp, sum and dot on a 65,536-element array and then a
pure-Python loop, because an item's time is a mix of both kinds of work and
the host's speed changes do not move them alike.  Measured over 80-90 s
spans, the numpy part alone tracked an edge-sweep point with slope
1.02-1.05, but across eight processes that each ran one edge-sweep pass it
left a spread (IQR / median) of 4.9% against 8.9% unscaled, the loop alone
4.5% and both together 3.4%; across ten dilute-search runs the numpy part
alone over-corrected (the spread of throughput fell from 14% unscaled to 9%
with it, and to 4% with half its correction).
Interpreter start-up does not follow any of them (slope 0.2-0.5), so
setup_s is reported unscaled.  The kernel never changes with the library,
so a change to qgasgeo moves the scaled times as it moves the raw ones.
The scaling removes only part of the noise: in one later slow spell the
unscaled edge-sweep throughput halved while the kernel slowed by about 1.2x.
Over 27 recorded edge-sweep passes (six minutes) it cut the pass-to-pass
spread of the summed item times (standard deviation of the log) from 0.15
to 0.034, while a single item still varied by 0.17 around its own median;
run.py therefore reports medians over blocks of whole passes.
"""

import time

import numpy as np

# the kernel's time on the 2-vCPU Xeon host of the baseline in its fast state
KERNEL_REF_S = 0.004
_M = np.arange(65536.0)


def _kernel():
    """Array work like the long series, then interpreter work like the
    quadrature's per-call overhead, about 2 ms each."""
    t = 0.0
    for x in (1e-3, 1e-2, 1e-1, 1.0):
        v = np.exp(-x * _M)
        t += v.sum() + v @ _M
    s = 0
    for i in range(25000):
        s += i * i % 7
    return t + s


def kernel_seconds(repeats=3):
    """Median of a few back-to-back kernel runs (a spike in one does not count)."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return sorted(times)[repeats // 2]


class Calibrated:
    """Collects item times and scales each by the kernel times measured around it.

    The kernel runs again once EVERY_S seconds have passed since it last ran,
    so long items get a measurement on each side and short ones share one.
    """

    EVERY_S = 0.25

    def __init__(self):
        self.pending = []          # raw times since the last kernel run
        self.scaled = []
        self.k_last = kernel_seconds()
        self.t_last = time.perf_counter()

    def add(self, seconds):
        self.pending.append(seconds)
        if time.perf_counter() - self.t_last >= self.EVERY_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        k = kernel_seconds()
        factor = KERNEL_REF_S / (0.5 * (self.k_last + k))
        self.scaled.extend(s * factor for s in self.pending)
        self.pending = []
        self.k_last = k
        self.t_last = time.perf_counter()
