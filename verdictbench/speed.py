"""Host-speed probes: how fast the shared host runs right now.

The host that runs the benchmark is shared with other tenants, and its
speed drifts by up to a factor of two in phases that last from seconds to
minutes.  Such a phase moves every timing of a run together, so no
statistic inside one run can remove it.  The benchmark therefore times a
fixed piece of its own code, a probe, before, during and after each
command, in the same thread, and scales the command's time to the speed
the probe has on the reference host:

    reference seconds = measured seconds * mean(REFERENCE_S / probe time)

A probe does not touch robustkkt, so a change to the program moves the
scaled times as much as the raw ones, while a slow phase of the host moves
both the command and the probe and cancels out.  The probes run inside a
command are timed and taken off its measured time.

A slow phase does not slow every kind of work alike, so there are two
probes, one per kind of work a workload does:

- ``scalar``: interpreter-bound loops and small arrays, like scalar
  scenario scans, tree walks and the exact simplex;
- ``array``: passes over arrays of a 401 x 401 grid, like envelope and
  raster sweeps.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time

import numpy as np

# Median probe times on the reference host (a 2-vCPU Intel Xeon) in one
# of its fast phases.  Only a scale: they make reference seconds read close
# to the seconds that host measures when its neighbours are quiet.
REFERENCE_S = {"scalar": 0.0015, "array": 0.0013}
# While a command runs, a probe runs every INTERVAL_S of wall time.
INTERVAL_S = 0.1
# Probes that give the host speed after a set-up.
SPEED_PROBES = 10


def probe_scalar(vec: np.ndarray, out: np.ndarray) -> float:
    """Seconds a fixed interpreter loop and 480 small array ops take."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(9000):
        acc += (i * 0.5) % 7.0
    for _ in range(160):
        np.multiply(vec, vec, out=out)
        np.add(out, 1.0, out=out)
        np.sqrt(out, out=out)
    return time.perf_counter() - t0


def probe_array(vec: np.ndarray, out: np.ndarray) -> float:
    """Seconds twelve passes over arrays of a 401 x 401 grid take."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.multiply(vec, vec, out=out)
        np.add(out, 1.0, out=out)
        np.sqrt(out, out=out)
        np.maximum(out, vec, out=out)
    return time.perf_counter() - t0


# Each probe with the length of the arrays it works on.  Neither allocates
# anything that outlives a bytecode, so the program's heap and garbage
# collector do not change its time.
PROBES = {"scalar": (probe_scalar, 2048), "array": (probe_array, 401 * 401)}


class Sampler:
    """Times a call and the host's speed while it runs (SIGALRM probes)."""

    def __init__(self, kind: str):
        fn, size = PROBES[kind]
        vec = np.linspace(0.0, 1.0, size)
        self.probe = functools.partial(fn, vec, np.empty_like(vec))
        self.reference_s = REFERENCE_S[kind]
        self.probe()  # untimed: the first call warms numpy's dispatch
        self._inside: list[float] = []
        self.net_s = 0.0
        self.speed = 1.0

    def _on_alarm(self, signum, frame) -> None:
        self._inside.append(self.probe())

    def call(self, fn):
        """Run ``fn()`` and return its result.  Afterwards, even if it
        raised, ``net_s`` holds its seconds net of the probes run inside
        it, and ``speed`` the host speed as a share of the reference."""
        probes = [self.probe()]
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            probes += self._inside
            probes.append(self.probe())
            self.net_s = elapsed - sum(self._inside)
            self.speed = self._mean_speed(probes)

    def _mean_speed(self, probes) -> float:
        return statistics.fmean(self.reference_s / p for p in probes)

    def host_speed(self) -> float:
        """Host speed as a share of the reference, from a few probes."""
        return self._mean_speed([self.probe() for _ in range(SPEED_PROBES)])
