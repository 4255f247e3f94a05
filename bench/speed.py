"""Machine-speed probes, so that times are reported at a fixed reference speed.

On a shared host the speed of each vCPU swings by up to a factor of two, for
a fraction of a second to a few seconds at a time, independently of the
other vCPUs, and CPU time swings with it.  So the benchmark measures the
speed of the CPU it runs on with a fixed piece of pure-Python work (the
probe; it does not touch cyclodet) and reports every time as the time the
same work would take at the reference speed, where one unit of probe work
takes REFERENCE_S_PER_UNIT.  A change to cyclodet moves a scaled time in full; a
slow phase of the host does not.

Two ways to probe:
- ``probe()`` before and after something that cannot be interrupted (a
  process start), and ``scale`` with the two results;
- a ``Sampler`` in the process that does the work: a wall-clock timer
  interrupts it every PERIOD_S to run a short probe, and ``scaled(t0, t1)``
  integrates the work done between t0 and t1 at the speed the probes around
  each moment measured.  The probes' own time is left out.

The probe mixes what the library's inner loops do: interpreter dispatch,
small-integer arithmetic, tuple and dict traffic, and products and
remainders of multi-word integers.  On that VM a pure dispatch loop slowed
down more than the library's tasks in slow phases, and a loop of very large
integer products less; the mix was chosen as the one that tracked the
slowest tasks of every workload best.
"""

from __future__ import annotations

import bisect
import signal
import time

# Seconds one probe unit takes on the VM the benchmark was sized on (2 vCPUs,
# Python 3.11) when that VM ran at its usual speed.
REFERENCE_S_PER_UNIT = 1.2e-3
PROBE_UNITS = 6  # a stand-alone probe
PERIOD_S = 0.025  # between the sampler's probes, of one unit each
_MODULUS = 3 ** 181 + 2
_WORDS = tuple((i * 0x9E3779B97F4A7C15) ** 6 | 1 for i in range(64))


def _unit() -> int:
    """One unit of probe work: a loop of small-integer, tuple and dict
    operations (a quarter of the time), then rounds of 512-bit products over
    a list (three quarters)."""
    acc = 1
    big = 7 ** 90
    table: dict[int, tuple] = {}
    for i in range(600):
        acc = (acc * 31 + i) % 1000003
        table[i & 31] = (acc, i, -i)
        pair = table.get((i + 7) & 31, (0, 0, 0))
        acc ^= pair[0] + pair[2]
        big = big * (i | 1) % _MODULUS
        if i % 3 == 0:
            big += acc * acc
    words = _WORDS
    for k in range(9):
        words = [(words[i] * words[(i + 1) & 63] + k) % (1 << 512) + i for i in range(64)]
    return acc + big % 1009 + words[0] % 1009


def probe() -> float:
    """Slowness now: probe time over its time at the reference speed."""
    t0 = time.perf_counter()
    for _ in range(PROBE_UNITS):
        _unit()
    return (time.perf_counter() - t0) / (PROBE_UNITS * REFERENCE_S_PER_UNIT)


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes of slowness ``before`` and
    ``after``, at the reference speed."""
    return seconds * 2 / (before + after)


class Sampler:
    """Periodic probes in this process (main thread only; uses SIGALRM)."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each probe start
        self.ends: list[float] = []
        self.slowness: list[float] = []

    def mark(self, *_) -> None:
        t0 = time.perf_counter()
        _unit()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.slowness.append((t1 - t0) / REFERENCE_S_PER_UNIT)

    def start(self) -> None:
        self.mark()
        signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.mark()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of work between perf_counter readings t0 < t1, less the
        probes in between, at the reference speed.  Each gap between two
        probes runs at the mean slowness of the two."""
        total = 0.0
        i = max(0, bisect.bisect_right(self.ends, t0) - 1)
        while i + 1 < len(self.starts) and self.ends[i] < t1:
            lo, hi = max(self.ends[i], t0), min(self.starts[i + 1], t1)
            if hi > lo:
                total += (hi - lo) * 2 / (self.slowness[i] + self.slowness[i + 1])
            i += 1
        return total

    def raw(self, t0: float, t1: float) -> float:
        """Seconds between t0 and t1, less the probes in between."""
        inside = sum(min(e, t1) - max(s, t0) for s, e in zip(self.starts, self.ends)
                     if e > t0 and s < t1)
        return t1 - t0 - inside
