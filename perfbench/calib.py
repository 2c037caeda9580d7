"""Machine-speed probes: rescale measured seconds to a reference speed.

The benchmark runs on a few cores of a shared host whose speed switches
between a fast and a slow state (about 1.4-1.8x apart for the same code)
many times a minute, at time scales from 50 ms to a few seconds. The CPU
time of a fixed loop tracks its wall time there, so the slow state is slower
instructions, not time taken away, and no process of the benchmark's own
causes it. Interpreted code and native code (LAPACK) slow down by different
amounts.

`Probe` samples that speed while the workload runs. A timer signal every
``INTERVAL_S`` runs, in the measured process and between the workload's own
bytecodes, a fixed pure-Python loop and, once `arm_native` has been called,
a fixed small SVD. It logs how long each took. A span of the workload is
then reported as its wall time, less the probes inside it, with its
interpreted part divided by the mean slowdown of the Python probes around
it and its native part by that of the SVD probes: seconds at the reference
speed. A change to freshtrack moves the workload and not the probes; a
change of the host's speed moves both. The probes take about 2 % of a run.

The Python probe needs only the standard library, so it runs from the first
line of a fresh interpreter and covers freshtrack's import.
"""

import bisect
import signal
import time

INTERVAL_S = 0.025
# Each probe's time in the host's fast state: the 5th percentile of its
# times on a 2-vCPU x86-64 VM (CPython 3.11, numpy with OpenBLAS on one
# thread). Only the scale of the reported seconds depends on them.
NOMINAL_S = 0.0002
NATIVE_NOMINAL_S = 0.00024
# One probe can be slowed by an interrupt or a page fault; cap its weight.
MAX_SLOWDOWN = 3.0
# Probes up to this far outside a span also describe it, so that a span
# shorter than the interval still has some.
PAD_S = 0.05


def probe_loop():
    """The fixed unit of interpreted work: dict and integer operations."""
    table = {}
    total = 0
    for i in range(1000):
        table[i % 31] = table.get(i % 31, 0) + i
        total += table.get(i % 7, 0)
    return total


class _Samples:
    """Start times and durations of one probe, in time order."""

    def __init__(self, nominal):
        self.nominal = nominal
        self.starts = []
        self.times = []

    def add(self, t0, t1):
        self.starts.append(t0)
        self.times.append(t1 - t0)

    def range(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def busy(self, t0, t1):
        lo, hi = self.range(t0, t1)
        return sum(self.times[lo:hi])

    def slowdown(self, t0, t1):
        """Mean slowdown of the probes in and near [t0, t1]; None without probes."""
        lo, hi = self.range(t0 - PAD_S, t1 + PAD_S)
        if lo == hi:  # no probe near: take the nearest one on either side
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        picked = self.times[lo:hi]
        if not picked:
            return None
        return sum(min(t / self.nominal, MAX_SLOWDOWN) for t in picked) / len(picked)


class Probe:
    """Timer-driven speed samples of the running process.

    A disabled probe sets no timer and reports spans in plain seconds.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.python = _Samples(NOMINAL_S)
        self.native = _Samples(NATIVE_NOMINAL_S)
        self._svd = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self.python.add(t0, t1)
        if self._svd is not None:
            svd, matrix = self._svd
            svd(matrix, compute_uv=False)
            self.native.add(t1, time.perf_counter())

    def arm_native(self, np):
        """Add the SVD probe; call once numpy is fully imported."""
        matrix = np.random.default_rng(12345).standard_normal((64, 32))
        self._svd = (np.linalg.svd, matrix)

    def start(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, t0, t1):
        """Reference-speed seconds of the span [t0, t1], its probes left out.

        The timer signal waits while a native call runs, so a span spent in
        long native calls gets fewer ticks than its length allows. The share
        of the span that ticks could reach is taken as interpreted, and the
        rest as native.
        """
        if not self.enabled:
            return t1 - t0
        lo, hi = self.python.range(t0, t1)
        work = t1 - t0 - self.python.busy(t0, t1) - self.native.busy(t0, t1)
        sampled = 1.0
        if t1 - t0 >= 4 * INTERVAL_S:
            sampled = min(1.0, (hi - lo) * INTERVAL_S / (t1 - t0))
        interpreted = self.python.slowdown(t0, t1) or 1.0
        native = self.native.slowdown(t0, t1) or interpreted
        return work * (sampled / interpreted + (1.0 - sampled) / native)

    def speed(self):
        """Median Python-probe speed of the run against the reference (1.0 if none)."""
        if not self.python.times:
            return 1.0
        ordered = sorted(self.python.times)
        return NOMINAL_S / ordered[len(ordered) // 2]
