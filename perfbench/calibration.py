"""Rescale measured times to a fixed reference speed of the CPU.

On a small shared machine each virtual CPU switches between a fast and a slow
speed (about 1.5x apart) for stretches of a tenth of a second to minutes,
independently of the other virtual CPU.  The share of a run spent slow changes
from run to run and moves its median pass time by 25% or more.  So the
benchmark times a short slice of fixed work on the same CPU, every
``INTERVAL_S`` of wall time during a pass (from a ``SIGALRM`` handler, which
runs on the main thread between bytecodes) and around each fresh interpreter
of the set-up measurement.  Each stretch of wall time is then scaled by
``REFERENCE_SLICE_S`` over the slice time measured at its end: the seconds it
would have taken on a CPU where the slice takes ``REFERENCE_SLICE_S``.

The slice mixes the kinds of work spinmaps does: an interpreter loop,
operations on tiny arrays and small dense products.  Its inputs are fixed, so
every run and every commit times the same work, and it calls nothing in
spinmaps, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# About the slice time of the fast state of a 2-core x86-64 VM, so reference
# seconds read close to wall seconds there.
REFERENCE_SLICE_S = 0.0005

_rng = np.random.default_rng(20211203)
_DENSE = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_TINY = [_rng.standard_normal((4, 4)) + 0j for _ in range(8)]


def slice_s() -> float:
    """Seconds the fixed slice of work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(1500):
        total += i * i % 7
    for i in range(30):
        x = _TINY[i % 8] @ _TINY[(i + 1) % 8]
        total += abs(np.trace(x) + x.sum()) > 0
    _DENSE @ _DENSE
    _DENSE @ _DENSE
    return time.perf_counter() - start


class Sampler:
    """Within ``with``, times a slice every ``INTERVAL_S`` s: ``samples`` holds (start, seconds)."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, slice_s()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def reference_seconds(start: float, end: float, samples: list) -> tuple:
    """(wall, reference) seconds of ``[start, end)`` with the slices taken in it left out.

    Each stretch before a slice is scaled by that slice; the tail after the
    last one by the last one.
    """
    inside = [(stamp, took) for stamp, took in samples if start <= stamp < end]
    if not inside:  # shorter than INTERVAL_S
        return end - start, (end - start) * REFERENCE_SLICE_S / slice_s()
    wall = end - start - sum(took for _, took in inside)
    reference, last = 0.0, start
    for stamp, took in inside:
        reference += (stamp - last) * REFERENCE_SLICE_S / took
        last = stamp + took
    reference += max(end - last, 0.0) * REFERENCE_SLICE_S / inside[-1][1]
    return wall, reference


def speed_factor() -> float:
    """Reference seconds per wall second now, from ten back-to-back slices."""
    return REFERENCE_SLICE_S * statistics.fmean(1.0 / slice_s() for _ in range(10))
