"""Host-speed probe, for timings that hold still while the host's speed drifts.

The shared VM this benchmark was written on runs the same code up to 1.7x
slower at times, in spells of seconds to tens of minutes (see DESIGN.md).
A probe times a fixed loop of small numpy reductions, the same kind of work
as a fit: tiny arrays, so interpreter and call overhead dominate.  A stretch
of wallclock measured between two probes is scaled by how slowly the probes
ran around it:

    scaled = wall * NOMINAL_S / mean(probe before, probe after)

so a scaled time is the time the stretch would take on a host that runs the
probe in NOMINAL_S.  The probe is the benchmark's own code: a change to the
program cannot speed it up and so cannot hide in the scaling.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's time on a 2-core x86_64 VM (Python 3.11.7, numpy 2.4.6) in its
# fast state; a fixed constant, so scaled times compare across runs
NOMINAL_S = 0.015
_REPS = 2000


class HostSpeed:
    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal((32, 10))
        self.samples: list[float] = []

    def probe(self) -> float:
        """Seconds the fixed loop takes now."""
        x = self._x
        t0 = time.perf_counter()
        for _ in range(_REPS):
            m = x.max(axis=1)
            np.log(np.exp(x - m[:, None]).sum(axis=1))
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    return wall_s * NOMINAL_S / (0.5 * (before_s + after_s))


class Timer:
    """Wallclock of one stretch of work, less the probes taken inside it.

    ``start`` and ``stop`` probe just outside the stretch and ``split`` probes
    inside it, so each piece between two probes is scaled by the probes
    around it.
    """

    def __init__(self, host: HostSpeed):
        self.host = host

    def start(self) -> None:
        self._mark = self.host.probe()
        self.probe_s = 0.0
        self.scaled_s = 0.0
        self.t0 = self._piece_start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0 - self.probe_s

    def split(self) -> None:
        now = time.perf_counter()
        took = self.host.probe()
        after = time.perf_counter()
        self.scaled_s += scale(now - self._piece_start, self._mark, took)
        self.probe_s += after - now
        self._piece_start, self._mark = after, took

    def stop(self) -> tuple[float, float]:
        """(wall seconds, scaled seconds)."""
        end = time.perf_counter()
        wall = end - self.t0 - self.probe_s
        return wall, self.scaled_s + scale(end - self._piece_start, self._mark,
                                           self.host.probe())
