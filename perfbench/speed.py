"""Host speed, sampled through a run, so that timings do not drift with
the load on a shared machine.

On a shared 2-vCPU 2.1 GHz Xeon host the same series ops took from 64 to
79 ms per call, averaged over consecutive 10 s windows, while their time
divided by that of a fixed block of work run between them stayed within
2 %.  ``run.py`` therefore runs such blocks between ops, SHARE of a
second of them per second of op time, and reports the run's timings at
the reference speed:

    seconds at reference speed = measured seconds / slowdown,
    slowdown = (mean time of the blocks run around the op) / REF_S.

The block is pure-Python and small-array numpy work shaped like the
package's inner loops (one vector of quadrature nodes, a scalar loop).
It never calls the package, so no change to the package changes it.
Set-up time, which is mostly import work, is scaled instead by the time
the same fresh interpreter took to import numpy (``import_slowdown``).
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

# typical block time on the reference host (shared 2-vCPU 2.1 GHz Xeon,
# Python 3.11, numpy 2.4; 2.5 to 4 ms as its load changed), so that
# reported times are close to measured ones
REF_S = 0.0031
SHARE = 0.12  # block time per second of op time
# seconds to import numpy in a fresh interpreter on the reference host
IMPORT_REF_S = 0.15
WINDOW_S = 0.5  # blocks this close to an op measure the speed it met
_NODES = np.linspace(0.01, 0.99, 64)


def block() -> float:
    """Seconds taken by one fixed block of work, now."""
    t0 = perf_counter()
    acc = 0.0
    for k in range(300):
        y = np.exp(-k * 1e-3 / (_NODES * (1.0 - _NODES))) * _NODES ** 0.3
        acc += float(y.sum())
        for j in range(40):
            acc += math.sqrt(j + k) * 1e-9
    return perf_counter() - t0


class Speed:
    """Blocks timed through a run: their mid times and durations."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, op_seconds: float = 0.0) -> None:
        """Time blocks worth SHARE of ``op_seconds`` (at least one)."""
        for _ in range(max(1, round(SHARE * op_seconds / REF_S))):
            t0 = perf_counter()
            dt = block()
            self.times.append(t0 + dt / 2.0)
            self.durations.append(dt)

    def slowdown(self) -> float:
        """The run's host slowdown against the reference: mean block time
        over REF_S."""
        return statistics.fmean(self.durations) / REF_S

    def local_slowdowns(self, spans: list[tuple[float, float]]) -> list[float]:
        """Slowdown over each (start, end) span: mean time of the blocks
        within WINDOW_S of it, over REF_S (the run's, if there are none).

        Fast and slow phases of a shared host last seconds, so a run's
        ops can fall into two latency clusters; scaling each op by the
        speed around it, rather than the run's mean speed, keeps the
        median latency from jumping between them."""
        sums = np.concatenate(([0.0], np.cumsum(self.durations)))
        whole = self.slowdown()
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            out.append((sums[hi] - sums[lo]) / (hi - lo) / REF_S if hi > lo else whole)
        return out


def import_slowdown(numpy_import_s: float) -> float:
    """Host slowdown for import-like work (reading and executing modules,
    loading extension libraries), from the time a fresh interpreter took
    to import numpy.  The CPU block does not track it: on the reference
    host the set-up time stepped from 0.25 s to 0.16 s between two runs
    while the block's time barely moved, and over 24 fresh interpreters
    scaling set-up by numpy's import time cut its coefficient of
    variation from 0.13 to 0.05."""
    return numpy_import_s / IMPORT_REF_S
