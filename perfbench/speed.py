"""The speed of the machine while the benchmark runs, measured on a fixed
reference computation, so that case times can be given at one fixed speed.

On a shared host the CPU time of the same work moves by up to a quarter from
one minute to the next (another tenant on the sibling hyperthread, the
host's clock), in steps that last from seconds to minutes.  The benchmark
times a reference computation that does not touch calihecke between cases,
and scales every case's CPU time by REFERENCE_S over the reference time
measured around it.
"""

import gc
import time
from fractions import Fraction
from statistics import median

# CPU seconds of one reference_work() on the machine the benchmark was
# written on, in a quiet minute: 2 shared virtual cores at 2.0 GHz,
# Python 3.11.7.  Any constant would do; this one keeps scaled times close
# to the CPU times measured there.
REFERENCE_S = 0.005
# Wall seconds between probes: about 2 % of the time goes to probing.
PROBE_EVERY_S = 0.25
# Probes nearest a case, on each side, whose median gives its speed.
NEIGHBOURS = 3


def reference_work():
    """Exact arithmetic of the kind calihecke does, on nothing of its own:
    products of Fraction coefficient tuples modulo x^7 - 1, and tuple keys
    counted in a dict."""
    e = 7
    a = tuple(Fraction(i + 1, i + 2) for i in range(e))
    b = tuple(Fraction(2 * i - 3, i + 5) for i in range(e))
    seen = {}
    for _ in range(12):
        c = [Fraction(0)] * e
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[(i + j) % e] += x * y
        a = tuple(c)
        for i, x in enumerate(a):
            key = (i, x.numerator % 97, x.denominator % 89)
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


class SpeedLog:
    """Reference times taken between cases, and the scale they give to the
    case timed in between."""

    def __init__(self):
        self.times = []  # CPU seconds of each reference_work()
        self.last = None

    def probe(self):
        """Time reference_work() now, with the collector off, so that a
        collection of the program's objects is not charged to it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.process_time()
            reference_work()
            self.times.append(time.process_time() - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = time.perf_counter()

    def maybe_probe(self):
        """Probe if PROBE_EVERY_S of wall time passed since the last probe;
        returns the index of the latest probe."""
        if self.last is None or time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()
        return len(self.times) - 1

    def scale(self, index):
        """REFERENCE_S over the median reference time of the probes nearest
        probe `index`, NEIGHBOURS on each side."""
        lo = max(0, index - NEIGHBOURS + 1)
        return REFERENCE_S / median(self.times[lo:index + NEIGHBOURS + 1])
