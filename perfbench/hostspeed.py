"""A fixed unit of work that measures how fast the host runs right now.

The reference machine's CPU changes speed by up to 1.8x, for every kind
of job alike, and the share of slow time changes over minutes.  So raw
wall times of the same job list spread across runs of 30 s by more than
a regression the benchmark must catch.

``chunk()`` does the same work every time: exact polynomial products over
the rationals and a prime field and a cyclotomic reduction, all in
``reference.py``, which imports nothing from qfe.  So its time moves with
the host and never with the program under test.  ``run.py`` times a chunk
between every two jobs and scales each job's wall time by
``REFERENCE_S / (mean chunk time around the job)``: seconds at the
reference machine's fast speed.  The speed flips between a fast and a
slow mode within a second, so a chunk mostly reads one of two times; the
mean of a few, not their median, tracks the share of slow time a job
sees.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import reference as R

# The median time of one chunk on the reference machine (2 CPUs, Python
# 3.11) in a fast phase.  It only sets the scale: a scaled time is the
# wall time the job would take at that speed.
REFERENCE_S = 0.0028
WINDOW = 2      # chunks on each side of a job that set its local speed

_QR = R.Rationals()
_GF = R.Residues(1_000_003)
_Z12 = R.CyclotomicVectors(12)
_F = {3 * i: Fraction(i % 7 + 1, i % 5 + 2) for i in range(14)}
_G = {i: Fraction(1 - i % 3, 3 + i % 4) for i in range(12)}
_A = {i: i * 7919 % 1_000_003 for i in range(45)}
_B = {2 * i: i * 104_729 % 1_000_003 for i in range(45)}
_C = [[Fraction(i + j, j + 1) for i in range(3 * _Z12.phi)] for j in range(8)]


def _work():
    R.pmul(_F, _G, _QR)
    R.pmul(_A, _B, _GF)
    for c in _C:
        _Z12.reduce(c)


def chunk() -> float:
    """Seconds taken by one fixed unit of work.  The work runs once untimed
    first, so the caches a job left behind do not count toward it."""
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def probe_ms() -> float:
    """Median chunk time in ms over a short burst: the host's current speed."""
    return statistics.median(chunk() for _ in range(15)) * 1e3


def scale(chunks: list[float], i: int) -> float:
    """Factor that turns the wall time of the job timed between chunks[i]
    and chunks[i + 1] into reference seconds."""
    return REFERENCE_S / statistics.mean(chunks[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
