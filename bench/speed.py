"""Machine-speed probe for a shared, noisy host.

Other tenants of the host slow single-threaded code by up to a factor of two
for minutes at a time, and process CPU time slows with wall time, so neither
can be compared across runs as it stands.  The probe is a fixed loop of
small-array rotations, the same mix of interpreter work and tiny numpy calls
that dominates the package's Jacobi solver, and it shares no code with the
package.  Timing it right before and right after an operation estimates the
host's current speed; an operation's time rescaled by
``REFERENCE_S / probe time`` is its time on a host where the probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Probe duration that defines reference speed: its typical time on a shared
# 2-core x86-64 container, so that rescaled times read close to wall times.
REFERENCE_S = 0.0044

_ITERATIONS = 500
_MASK = (1 << 64) - 1


def probe() -> float:
    """Seconds one run of the fixed probe loop takes now: plane rotations of
    a small complex matrix with their angles from Python float math, and a
    Python integer mixing step, in the proportions of the package's Jacobi
    sweeps and seeded generators."""
    a = np.full((6, 6), 1.0 + 0.0j)
    z = 1
    start = time.perf_counter()
    for k in range(_ITERATIONS):
        c = math.cos(0.001 * k)
        s = complex(math.sin(0.001 * k), 0.0).conjugate()
        col_p = a[:, 1].copy()
        col_q = a[:, 2].copy()
        a[:, 1] = c * col_p + s * col_q
        a[:, 2] = -s.conjugate() * col_p + c * col_q
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15) & _MASK
    return time.perf_counter() - start


def timed(fn, probe=probe, reference_s=REFERENCE_S):
    """Call ``fn``; return ``(result, wall seconds, reference seconds)``,
    where ``probe`` takes ``reference_s`` at reference speed."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = probe()
    return result, wall, wall * reference_s / (0.5 * (before + after))
