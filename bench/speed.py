"""Machine-speed sampling, so that timings survive co-tenants on a shared host.

On the machine this benchmark was defined on (2-vCPU Intel Xeon VM), other
tenants change the speed of identical work by up to 2x within seconds, and
process CPU time tracks wall time, so the CPU itself slows down.  A SIGALRM
timer therefore runs a small fixed kernel every INTERVAL_S of wall time,
between bytecodes of whatever runs.  The kernel mixes what the program does
per cell: a frozen dataclass, elementwise writes into a 6x6 complex matrix,
`np.linalg.eig`, `eigvalsh` and a matvec.  An operation's speed factor is
the mean kernel time around it divided by NOMINAL_S.  NOMINAL_S is the
kernel's uncontended time on that machine (Python 3.11.7, numpy 2.4.6).
Time spent in the handler is subtracted from the operation it interrupted.
"""
from __future__ import annotations

import math
import signal
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
KERNEL_STEPS = 20
NOMINAL_S = 0.0011
# samples this far before and after an operation also describe its speed
PAD_S = 0.25


@dataclass(frozen=True)
class _Cell:
    low: float
    weight: float
    matrix: np.ndarray


def _step(x: float) -> _Cell:
    m = np.zeros((6, 6), dtype=complex)
    for i in range(6):
        m[i, i] = -x * (i + 1)
        m[i, (i + 1) % 6] = 0.5 * x + 0.01j
        m[(i + 2) % 6, i] = 0.25
    w, v = np.linalg.eig(m)
    vec = v[:, np.argsort(np.abs(w))[0]]
    vec = vec / vec[:4].sum()
    r = np.diag(vec[:4].real).astype(complex)
    r[1, 2], r[2, 1] = vec[4], np.conj(vec[4])
    low = np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0]
    return _Cell(float(low), math.exp(-x) + float(np.max(np.abs(m @ vec))), m)


def kernel() -> float:
    """Seconds for one run of the fixed kernel."""
    t0 = perf_counter()
    for k in range(KERNEL_STEPS):
        _step(0.1 + 0.01 * k)
    return perf_counter() - t0


class Sampler:
    """Context manager: runs the kernel from a SIGALRM timer while active."""

    def __init__(self):
        self.at = array("d")       # midpoint of each sample, perf_counter clock
        self.took = array("d")     # kernel seconds of each sample
        self.spent = 0.0           # seconds spent in the handler in total

    def _handler(self, signum, frame):
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        took = kernel()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(took)
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Machine-speed factor over [start, end]: mean kernel time / NOMINAL_S."""
        lo = bisect_left(self.at, start - PAD_S)
        hi = bisect_right(self.at, end + PAD_S)
        if hi == lo:  # no sample near: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        return sum(self.took[lo:hi]) / (hi - lo) / NOMINAL_S
