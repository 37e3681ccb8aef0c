"""Host-speed calibration for capbench timings.

On a shared host the CPU a run gets can change speed by more than half
in phases lasting minutes, longer than a run.  No median within a run
removes that.  So the timed loop interleaves a short reference task,
fixed here and calling nothing of capergo, and every timing is scaled
to the speed at which the reference task takes its reference time:

    scaled = measured * reference time / reference task's time nearby

A change to capergo moves the measured time and leaves the reference
task alone, so it moves the scaled time in full; a host phase moves
both, and cancels.  Kinds of work slow down by different amounts in a
slow phase, so the reference task is made of the parts that match a
workload's work (``Workload.reference``):

- ``exact``: the marginal vectors of a fixed exact table on 5 points
  over every ordering, in Fractions, as greedy core vertices are built;
- ``float``: QR propagation of a fixed 3x3 matrix in numpy, as
  ``lyapunov_qr`` does it.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time
from fractions import Fraction

import numpy as np

# take a sample whenever this much time has passed since the last one
EVERY_S = 0.2
# samples on each side of an op that its scale is taken from
NEIGHBOURS = 2

_MATRIX = np.array([[0.6, -0.3, 0.1], [0.2, 0.9, -0.4], [-0.5, 0.1, 0.7]])
# fixed exact values on the 32 events of 5 points
_TABLE = [Fraction(bin(a).count("1") * 7 + a % 5, 40) for a in range(31)] + \
    [Fraction(1)]


def _exact_part():
    for _ in range(3):
        for perm in itertools.permutations(range(5)):
            x, mask = [Fraction(0)] * 5, 0
            for i in perm:
                x[i] = _TABLE[mask | 1 << i] - _TABLE[mask]
                mask |= 1 << i


def _float_part():
    q = np.eye(3)
    for _ in range(200):
        q, r = np.linalg.qr(_MATRIX @ q)
        np.log(np.abs(np.diag(r)))


# each part and its time at the reference speed (a fast phase of a
# 2-vCPU x86-64 host with Python 3.11 and numpy 2.4); scaled timings are
# seconds at that speed
PARTS = {"exact": (_exact_part, 0.0027), "float": (_float_part, 0.0039)}


class Calibrator:
    """Reference-task samples, timed where they are taken."""

    def __init__(self, parts):
        self.parts = [PARTS[p][0] for p in parts]
        self.reference_s = sum(PARTS[p][1] for p in parts)
        self.ends, self.samples = [], []
        self.sample()  # warm caches and numpy's lazy set-up
        self.ends = []  # perf_counter at each sample's end
        self.samples = []  # each sample's seconds

    def sample(self):
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.samples.append(t1 - t0)

    def due(self):
        return time.perf_counter() - self.ends[-1] >= EVERY_S

    def scale(self, start, end):
        """The factor for work timed between start and end: the
        reference time over the median of the NEIGHBOURS samples taken
        just before start and the NEIGHBOURS taken just after end."""
        i = bisect.bisect_right(self.ends, start)
        j = bisect.bisect_left(self.ends, end)
        near = self.samples[max(i - NEIGHBOURS, 0):i] + \
            self.samples[j:j + NEIGHBOURS]
        return self.reference_s / statistics.median(near)

    def median(self):
        return statistics.median(self.samples)
