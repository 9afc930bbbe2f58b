"""A fixed reference kernel that tracks the host's momentary speed.

On a shared host the same request can take 1.6 times longer for tens of
seconds at a time, when a neighbour loads the physical core.  Wall-clock
latencies then spread more from run to run than any bound worth setting.
This kernel does a workload's mix of work and slows down with it.  The
"stepper" mix is about three quarters small numpy ufuncs and dot products and
one quarter plain Python float arithmetic.  In the slow stretches the numpy
part slows by about 1.7 and the Python part by about 1.35.  Over 90 s with the
host swinging between its two speeds (2 GHz Xeon vCPU), stepping time over the
time of this mix differed by 3 % or less between the fast and the slow
stretches, at K = 30 and at K = 100, while stepping time itself moved by 60 %.
Work that is mostly plain Python (rule generation, CSV formatting) slows less:
over five `cli-graded` runs, log request time followed log kernel time with a
slope of 0.77 (0.89 on `verify`), and a 40 % Python share in the one mix all
workloads shared doubled the spread of the stepping-bound workload.  So the
CLI workload has its own "python" mix, about 70 % plain Python by time, which
puts the slope near one for it.

Request timings are therefore reported in reference seconds: measured
seconds times REF_SECONDS over the kernel's time measured beside them.  The
kernel is part of the benchmark, not of diffcap, so no change to the program
moves it.  Set-up time (a fresh process importing diffcap, numpy and scipy)
follows neither of those mixes but a pure-Python one, "interpreter": over 30
fresh processes on one pinned CPU, set-up time and this mix timed in the same
process correlated at 0.85, and the spread of set-up time (IQR over median)
fell from 0.45 to 0.10 in reference seconds.  Unpinned, the kernel timed in
the parent did not correlate with the child's set-up at all (0.09): the two
vCPUs are loaded independently, so run.py pins itself to one.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from time import perf_counter

#: a kernel's duration at the reference speed: an uncontended 2 GHz Xeon
#: vCPU with numpy 2.4 and Python 3.11
REF_SECONDS = 0.0018
#: (numpy rounds, Python float operations) of each mix, each about
#: REF_SECONDS long at the reference speed
MIXES = {"stepper": (300, 4000), "python": (125, 13500), "interpreter": (0, 19000)}
#: kernel timings the scale is the median of
WINDOW = 4


def kernel(numpy_rounds: int, python_ops: int) -> float:
    acc = 0.0
    if numpy_rounds:
        import numpy as np  # here, not above: the set-up probes time numpy's import

        x = np.linspace(0.1, 1.0, 64)
        for i in range(numpy_rounds):
            y = np.exp(-x * (i * 1e-3)) / (1.0 + x)
            acc += float(y @ x) + math.log1p(i)
    for i in range(python_ops):
        acc += (i * 0.5) % 7.0
    return acc


class SpeedMeter:
    """Kernel timings taken right before and right after each request.

    ``scale()`` converts measured seconds into reference seconds from the
    last WINDOW timings, which bracket the last two requests."""

    def __init__(self, mix: str) -> None:
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.mix = MIXES[mix]
        kernel(*self.mix)  # first calls of the ufuncs pay one-off dispatch set-up

    def sample(self) -> None:
        start = perf_counter()
        kernel(*self.mix)
        elapsed = perf_counter() - start
        self.recent.append(elapsed)

    def scale(self) -> float:
        return REF_SECONDS / statistics.median(self.recent)
