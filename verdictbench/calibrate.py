"""Host-speed calibration: rescale measured times to a host of fixed speed.

The benchmark shares a few cores of a busy host whose speed drifts by up to
half over seconds to minutes, while a fixed Python computation keeps the same
ratio to the program's jobs within a few percent.  So a timed run calls
``Calibrator.tick`` between jobs; every PERIOD_S it times ``reference()``, a
fixed computation in the program's own idiom (``Fraction`` arithmetic and
hashing, tuple-keyed dicts, small objects).  A time taken at moment t is
rescaled by REF_S over the mean reference time within WINDOW_S of t, less
the TRIM share of samples at either end: it reads as the time the job would
take on a host that runs the reference in REF_S.  The mean, unlike the
median, counts the short stalls a busy host inflicts as often as they hit
the jobs; the trim drops the rare sample that one long stall dominates.
The reference runs with the garbage collector off, so a collection the
previous job left due does not land in it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

# seconds the reference takes between jobs on the nominal host (about its
# median on a 2-vCPU Intel Xeon VM running Python 3.11)
REF_S = 0.0025
PERIOD_S = 0.03
WINDOW_S = 1.0
TRIM = 0.1
MIN_SAMPLES = 5


class _Term:
    __slots__ = ("coeff", "exps")

    def __init__(self, coeff, exps):
        self.coeff = coeff
        self.exps = exps


def reference():
    """A fixed computation of about REF_S on the nominal host."""
    acc = {}
    terms = [_Term(Fraction(i % 7 + 1, i % 5 + 2), (i % 3, i % 4)) for i in range(32)]
    for a in terms:
        for b in terms[::2]:
            key = (a.exps[0] + b.exps[0], a.exps[1] + b.exps[1])
            acc[key] = acc.get(key, 0) + a.coeff * b.coeff
    return sum(acc.values())


def time_reference():
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        gc.enable()


class Calibrator:
    """Reference timings taken between jobs, and the rescaling they imply."""

    def __init__(self):
        self.times = []  # moments (perf_counter) at which samples were taken
        self.samples = []  # reference seconds at those moments
        self._last = float("-inf")

    def tick(self):
        """Time the reference if PERIOD_S has passed since the last sample."""
        if perf_counter() - self._last >= PERIOD_S:
            t0 = perf_counter()
            dt = time_reference()
            self.times.append(t0)
            self.samples.append(dt)
            self._last = perf_counter()

    def factor(self, t):
        """REF_S over the trimmed mean reference time near moment t."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        near = sorted(self.samples[lo:hi])
        cut = int(len(near) * TRIM)
        return REF_S / statistics.fmean(near[cut:len(near) - cut])
