"""Host-speed calibration: a fixed kernel timed between the operations.

The benchmark host is a shared virtual machine whose speed drifts by up to 2x
over seconds to minutes while nothing in the process changes; process CPU time
drifts with it, so the slow-down is not time stolen from the process. Between
the operations (and around each set-up run) the benchmark times this kernel,
for SHARE of the operation time, and scales each operation's latency by REF_S
/ (median kernel time within WINDOW_S of the operation). That gives seconds at
the reference speed, the speed at which one kernel run takes REF_S. The kernel
solves one sparse LP of 300 rows through `scipy.optimize.linprog` (HiGHS), the
call that takes most of a shiftopt operation. On the benchmark host, scaling
by it steadied the operations more than scaling by a pure-Python loop, a NumPy
memory stream or a 60-row LP did. It never calls shiftopt, so a change to the
program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

REF_S = 0.025  # kernel time at the reference speed: about its time on a quiet benchmark host
WINDOW_S = 1.0  # kernel runs up to this far before or after an operation count for it
SHARE = 0.1  # kernel time as a share of the operation time it is interleaved with


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(12345)
        dense = rng.uniform(0.0, 1.0, (300, 225)) * (rng.uniform(0.0, 1.0, (300, 225)) < 0.04)
        self.lp = (-rng.uniform(0.5, 1.5, 225), csr_matrix(dense), rng.uniform(1.0, 2.0, 300))
        self.kernel()  # untimed: the first call loads and warms the solver
        self.mids: list[float] = []
        self.times: list[float] = []

    def kernel(self) -> None:
        c, a, b = self.lp
        res = linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs")
        if res.status != 0:
            raise RuntimeError(f"calibration kernel failed: {res.message}")

    def sample(self, seconds: float = 0.0) -> float:
        """Run the kernel once, and again until `seconds` have passed;
        returns the time taken."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.kernel()
            t1 = perf_counter()
            self.mids.append((t0 + t1) / 2.0)
            self.times.append(t1 - t0)
            if t1 - start >= seconds:
                return t1 - start

    def factor(self, start: float, end: float) -> float:
        """REF_S / median kernel time of the runs within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no calibration run near an operation")
        return REF_S / statistics.median(self.times[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.times)
