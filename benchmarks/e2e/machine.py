"""Machine-speed calibration: timing that survives a noisy box.

The boxes this benchmark runs on share their memory system with other
tenants: identical work (same seed, same operation count, identical
counters) was measured at 5.5 s and at 9.1 s minutes apart, and the
speed shifts within seconds.  No window short enough to fit the run
budget averages that away, so the harness measures the machine too.

Between timed operations the driver thread runs a small fixed kernel of
its own (:meth:`Calibrator.sample`; numpy calls on instance-set-sized
arrays, the mix the program's hot paths are made of — but no code of
the program, so no change to the program can move it).  The kernel's
cost around an operation, relative to :data:`REFERENCE_S`, is the
*slowdown* the machine imposed on it; the gated metrics divide each
measured time by its slowdown.  They therefore read in milliseconds of
a reference machine — one on which the kernel takes ``REFERENCE_S`` —
and the unnormalised values are reported next to them (``raw.*``,
``machine.slowdown_p50``) so nothing is hidden.  On the same work the
normalised totals repeated within +/-5% while the raw ones spread
+/-25%.
"""

from __future__ import annotations

import time

import numpy as np

#: Cost of one kernel pass on the reference machine, seconds (the
#: 2-core dev box this benchmark was written on, between operations
#: of a quiet run).
REFERENCE_S = 0.0007


class Calibrator:
    """Samples the kernel's cost; answers "how slow was the machine
    during this interval"."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._arrays = [rng.random((50, 2)) for _ in range(96)]
        self._times: list[float] = []
        self._costs: list[float] = []

    def sample(self, n: int = 1) -> None:
        """Run the kernel ``n`` times, recording when and how long."""
        for _ in range(n):
            t0 = time.perf_counter()
            for a in self._arrays:
                d = np.hypot(a[:, 0] - 0.5, a[:, 1] - 0.5)
                d.min()
                (d * d).sum()
            t1 = time.perf_counter()
            self._times.append(0.5 * (t0 + t1))
            self._costs.append(t1 - t0)

    def slowdown(self, t0: float, t1: float, pad: float = 2.0) -> float:
        """Median kernel cost over the samples taken within ``pad``
        seconds of ``[t0, t1]`` (the nearest one if none), as a multiple
        of the reference cost.  The machine's speed shifts over
        seconds, a single sample jitters by tens of percent: hence a
        median over a few seconds of samples."""
        times = np.asarray(self._times)
        costs = np.asarray(self._costs)
        near = (times >= t0 - pad) & (times <= t1 + pad)
        if near.any():
            cost = float(np.median(costs[near]))
        else:
            mid = 0.5 * (t0 + t1)
            cost = float(costs[np.abs(times - mid).argmin()])
        return cost / REFERENCE_S

    def median_slowdown(self) -> float:
        """The run's typical slowdown."""
        return float(np.median(self._costs)) / REFERENCE_S
