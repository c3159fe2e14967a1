"""Host-speed probe: expresses measured times in seconds at a fixed speed.

The benchmark's host is a small VM on a shared machine.  Its user-mode CPU
speed changes in plateaus lasting from seconds to minutes, by up to about
2x, so raw seconds of the same code on the same inputs spread by more than
any useful regression bound, and medians over a run do not help when a
whole run sits in one plateau.

The probe samples that speed while the workload runs.  An interval timer
(SIGALRM, every PERIOD_S of wall time) interrupts the main thread, which
runs a small fixed kernel -- pure-Python arithmetic, float formatting, 3 x 3
LAPACK calls and a few vectorised ufuncs, the kinds of work the library
does -- twice, and records how long the second pass took.  The first pass
warms caches and TLB, so a sample does not depend on how much memory the
interrupted work was touching (a cold pass reads about 2x slower inside
fig3's allocation-heavy loop than inside geometry-sweep on the same host).
A time measured over an interval is then rescaled by
NOMINAL_S / (mean sample in that interval), so that it reads as seconds on
a host where the kernel takes NOMINAL_S.  The kernel is the benchmark's own
code, so a change to ``eigengeo`` cannot move it; the time spent in the
handler is subtracted from the interval first.

Raw seconds and the probe samples are kept in every run's record.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Sets the unit only: a round figure within the kernel's warm time on the
# reference host (2-vCPU VM, Intel Xeon, Python 3.11, numpy 2.4 with
# OpenBLAS), which ranges over 0.18-0.41 ms as the host's load changes.
NOMINAL_S = 0.25e-3

_rng = np.random.default_rng(20121123)
_A = _rng.standard_normal((4, 3, 3))
_A = _A @ _A.transpose(0, 2, 1) + np.eye(3)
_V = _rng.uniform(0.5, 2.0, 4000)


def kernel() -> float:
    """A little of each kind of work the library does: interpreted float
    arithmetic, float formatting and dict/str handling as in the CLI's CSV
    writing, 3 x 3 LAPACK calls and ufuncs on a few thousand values."""
    s = 0.0
    for i in range(300):
        s += (i * 0.5) ** 0.5
    rows = [f"{x!r},{x * 2:.6g}" for x in _V[:40].tolist()]
    s += len(",".join(rows))
    index = {}
    for j, row in enumerate(rows):
        index[row[:8]] = j
    for a in _A:
        w, q = np.linalg.eigh(a)
        s += float(((q * w) @ q.T)[0, 0])
    s += float(np.linalg.solve(_A[0], _A[1]).sum()) + float(np.linalg.slogdet(_A)[1].sum())
    s += float(np.exp(-_V).sum()) + float(np.log(_V) @ _V)
    s += float(np.sort(_V)[::97].sum()) + float(np.einsum("ij,ij->", _A[0], _A[1]))
    return s


class SpeedProbe:
    """Samples the kernel time on a timer; see the module docstring."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.times: list[float] = []  # kernel seconds of each sample
        self.total = 0.0  # seconds spent in the handler, sampling included

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.times.append(t2 - t1)
        self.total += time.perf_counter() - t0

    def sample(self) -> None:
        """Take one sample now, outside the timer."""
        self._handler(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int, float]:
        """State at an interval's start, for ``scaled``."""
        return time.perf_counter(), len(self.times), self.total

    def scaled(self, mark: tuple[float, int, float], min_samples: int = 3) -> tuple[float, float, float]:
        """(scaled seconds, raw seconds, speed factor) since ``mark``.

        Raw seconds exclude the handler's time.  When the timer took fewer
        than ``min_samples`` samples in the interval, the missing ones are
        taken right after it, so a short interval is scaled by the speed of
        the moment it ended."""
        start, first, spent = mark
        raw = time.perf_counter() - start - (self.total - spent)
        while len(self.times) - first < min_samples:
            self.sample()
        factor = statistics.fmean(self.times[first:]) / NOMINAL_S
        return raw / factor, raw, factor
