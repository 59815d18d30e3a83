"""Host-speed normalisation of the benchmark's timings.

The benchmark shares a small VM with other tenants, whose load slows the
same code by up to ~2x for seconds to minutes at a time.  A workload that
only measured wall time would report the neighbours as much as the
program.  So every timed phase also runs a fixed reference kernel — a few
dozen numpy calls on 3-vectors, the program's own kind of work — between
periods, about every :data:`PROBE_EVERY_S` of wall time and never inside
a timed period.  A probe runs the kernel twice and times the second run:
the first brings the kernel's code and data back into the caches, so the
probe measures the core's speed and not how much of the cache the
program's last period used (which a change to the program would move).
Each period is then scaled by how fast the kernel ran around it::

    normalised = measured * NOMINAL_PROBE_S / local median kernel time

where the local median spans the :data:`SMOOTH` probes on either side.
On an uncontended host the kernel takes about :data:`NOMINAL_PROBE_S`,
so the normalised figures read as uncontended seconds on the reference
host (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4); when a neighbour
slows the core, kernel and program slow together and the ratio holds.
A change to the program moves its periods and not the kernel, so it
shows in full.  Set-up times are scaled the same way, by the probes
taken around each set-up.

A phase whose work runs on more than one core (the wire workload: the
frontend on one, the worker on another) probes each of those cores in
turn, moving the probing thread there for the probe, and uses the mean.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

import numpy as np

_clock = time.perf_counter

#: Kernel time on an uncontended core of the reference host.
NOMINAL_PROBE_S = 0.3e-3
#: Wall time between probes (a probe takes ~0.6 ms).
PROBE_EVERY_S = 0.01
#: Probes on either side in the local median (about 50 ms each way).
SMOOTH = 5

_A = np.diag([1.0, 2.0, 3.0])
_V = np.ones(3)


def _kernel() -> float:
    """A fixed amount of small-numpy work (matrix-vector, solve, dot)."""
    x = _V
    for _ in range(40):
        x = _A @ x * 0.25 + _V
        y = np.linalg.solve(_A, x)
        x = x + 1e-3 * float(np.dot(y, y))
    return float(x[0])


def _timed_kernel() -> float:
    """Seconds of one warm kernel run (a first, untimed run warms it)."""
    _kernel()
    t0 = _clock()
    _kernel()
    return _clock() - t0


class HostSpeed:
    """Probe times of one phase, keyed by the period count at each probe."""

    def __init__(self, cpus: Optional[List[int]] = None) -> None:
        #: Cores to probe in turn; ``None`` probes wherever this thread runs.
        self.cpus = cpus
        self.at: List[int] = []
        self.times_s: List[float] = []
        self._last = _clock()

    def probe(self, periods: int) -> None:
        """Time the kernel once, warm, on each probed core; ``periods``
        periods are recorded so far."""
        if self.cpus is None:
            took = _timed_kernel()
        else:
            home = os.sched_getaffinity(0)
            try:
                times = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times.append(_timed_kernel())
            finally:
                os.sched_setaffinity(0, home)
            took = sum(times) / len(times)
        self._last = _clock()
        self.at.append(periods)
        self.times_s.append(took)

    def maybe_probe(self, periods: int) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last one."""
        if _clock() - self._last >= PROBE_EVERY_S:
            self.probe(periods)

    def _local_factors(self) -> np.ndarray:
        """Scale factor at each probe, from the local median kernel time."""
        times = np.asarray(self.times_s)
        local = np.array([
            np.median(times[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(times))
        ])
        return NOMINAL_PROBE_S / local

    def factors(self, periods: int) -> np.ndarray:
        """Scale factor of each of the first ``periods`` periods."""
        local = self._local_factors()
        # Period i ran before the first probe taken at a count > i.
        nearest = np.searchsorted(np.asarray(self.at), np.arange(periods), side="right")
        return local[np.minimum(nearest, len(local) - 1)]

    def scale(self, times_s: List[float], probes: List[int]) -> np.ndarray:
        """Scale times each taken just before probe number ``probes[i]``."""
        local = self._local_factors()
        return np.asarray(times_s) * local[np.minimum(probes, len(local) - 1)]

    def median_probe_s(self) -> float:
        return float(np.median(self.times_s))
