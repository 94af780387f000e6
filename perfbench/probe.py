"""Host-speed probe and normaliser.

The benchmark host's own speed drifts by up to 2x in regimes of 5-20 s
(CPU frequency, neighbours on shared cores), so raw wall times of one
batch spread far more from run to run than any optimisation worth
measuring.  Before every timed call the benchmark runs a fixed
pure-Python probe; the call's wall time is then rescaled to what it
would have taken on a host where the probe reads :data:`REF_S`.

The probe allocates no GC-tracked objects (it loops over ``range`` with
int arithmetic only), so it can neither trigger a collection nor absorb
one the program under test caused.

Smoothing: one reading is the minimum of three ~1 ms spins (the minimum
drops a spin that was preempted), and the factor applied to call *i* is
the median of the readings taken before calls *i-2 .. i+2*.  The median
over neighbours tracks regime changes, which last seconds, while
ignoring a single unlucky reading.

The readings are bimodal on the reference host (about 1.08 ms and
1.5 ms, regimes lasting seconds), and warm per-file times follow the
regime roughly one-for-one, which is what the plain ``REF_S / probe``
scaling assumes.
"""

from __future__ import annotations

import statistics
import time

#: Probe reading (seconds) of the reference host.  A constant, never
#: re-measured per run: normalised times are "seconds at REF speed".
#: Set from the median reading over the runs recorded in
#: ``steadiness.json`` (2-vCPU x86-64 host, CPython 3.11).
REF_S = 0.0015

#: Loop trip count of one spin (~1 ms on the reference host).
SPIN_ITERATIONS = 10_000
SPINS_PER_READING = 3
SMOOTH_RADIUS = 2


def _spin(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 1103515245 + i) & 0xFFFFFFF
    return x


def read_probe() -> float:
    """One probe reading in seconds (about 3 ms of wall time)."""
    best = float("inf")
    for _ in range(SPINS_PER_READING):
        start = time.perf_counter()
        _spin(SPIN_ITERATIONS)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def normalize(raw_s: float, probe_s: float) -> float:
    """``raw_s`` rescaled to the reference host's speed."""
    return raw_s * REF_S / probe_s


def smoothed(probes: list[float]) -> list[float]:
    """Per-call probe value: median of the readings within
    :data:`SMOOTH_RADIUS` calls on either side."""
    out = []
    for i in range(len(probes)):
        lo = max(0, i - SMOOTH_RADIUS)
        out.append(statistics.median(probes[lo:i + SMOOTH_RADIUS + 1]))
    return out


def normalize_series(raw: list[float], probes: list[float]) -> list[float]:
    """Normalise call *i*'s wall time by its smoothed probe reading."""
    return [normalize(r, p) for r, p in zip(raw, smoothed(probes))]


class Timer:
    """Times calls, each preceded by a probe reading.

    ``raw`` and ``probes`` keep every reading for audit; the factors
    are applied by :func:`normalize_series` once all calls are in.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.probes: list[float] = []

    def call(self, fn, *args):
        self.probes.append(read_probe())
        start = time.perf_counter()
        result = fn(*args)
        self.raw.append(time.perf_counter() - start)
        return result
