"""Host-speed calibration: a tiny fixed kernel timed all through a run.

The benchmark runs on shared virtual machines whose speed changes while
the program's work stays the same: for seconds to minutes at a time a
neighbour on the same physical core can nearly halve the speed of
interpreted code.  :class:`HostSampler` measures that speed during the run
itself: a wall-clock interval timer interrupts the measuring process every
:data:`INTERVAL` seconds and times one call of :func:`kernel`, which never
touches the program.  The samples are spread evenly over the run, so their
mean sees each speed regime for as long as the workload did, and scaling
the workload's wall times by it turns them into *reference seconds*: the
seconds the work would take on a host that runs the kernel in
:data:`REFERENCE_SECONDS`.  A change to the program moves the workload's
times and not the kernel's, so it still shows in full.

The kernel mixes what the simulator spends its time on: interpreted
integer and dictionary work with draws from ``random.Random`` (the event
loop) and small numpy fancy-indexing and table lookups (GF(16) encoding
and elimination).
"""

from __future__ import annotations

import random
import signal
import time

import numpy

#: Seconds of wall time between two samples.
INTERVAL = 0.1

#: Mean kernel time, in seconds, on a quiet 2-vCPU host (Python 3.11,
#: numpy 2): the host speed that reference seconds stand for.
REFERENCE_SECONDS = 0.0006

#: Share of samples dropped at each end before averaging: a sample that a
#: context switch or page fault happened to land in says nothing of the host.
TRIM = 0.05

_EXP = numpy.array([1, 2, 4, 8, 3, 6, 12, 11, 5, 10, 7, 14, 15, 13, 9], dtype=numpy.uint8)
_LOG = numpy.zeros(16, dtype=numpy.int64)
_LOG[_EXP] = numpy.arange(15)
_ROWS = numpy.random.default_rng(7).integers(1, 16, size=(64, 32), dtype=numpy.uint8)
_PICKS = numpy.random.default_rng(8).integers(0, 64, size=(32, 8))


def kernel() -> int:
    """One fixed unit of work; returns a checksum of it."""
    rng = random.Random(7)
    counts: dict[int, int] = {}
    checksum = 0
    for i in range(1_500):
        x = rng.getrandbits(30)
        checksum ^= x
        counts[i & 127] = counts.get(i & 127, 0) + (x & 7)
    for picks in _PICKS:
        product = _EXP[(_LOG[_ROWS[picks]] + _LOG[_ROWS[:8]]) % 15]
        checksum += int(product.sum())
    return checksum + sum(counts.values())


def timed() -> float:
    """Wall seconds of one :func:`kernel` call."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def factor(samples: list[float]) -> float:
    """Multiplier from this host's wall seconds to reference seconds.

    ``REFERENCE_SECONDS`` over the trimmed mean of the kernel samples.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return REFERENCE_SECONDS * len(kept) / sum(kept)


class HostSampler:
    """Times :func:`kernel` every :data:`INTERVAL` s while in a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed())

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
