"""Speed correction: host seconds that mean the same on a slow day.

This box's raw wall-clock times of the *same code* drift by tens of percent
within minutes (noisy neighbours: whole phases of 5-10 s run 40 % slow, on
top of 0.1-0.3 s bursts), which is more than any bound the ledger sets.  So
every host-time number the ledger reports is

    corrected = elapsed * K0 / calib

where ``calib`` is the mean of :func:`calibrate` taken immediately before
and after the measured region and :data:`K0` is the kernel's nominal time.
A machine phase that runs the workload 40 % slow runs the kernel 40 % slow
too, and the ratio cancels it.

One calibration times the kernel in :data:`SLICES` short slices and keeps
the **median slice**: a burst shorter than half the calibration cannot move
it, while a slow phase moves every slice.  (Timing the kernel as one 0.2 s
block was tried first and was noisier than the workloads it corrected.)

**Frozen.**  The kernel, the slicing and ``K0`` define the unit every
committed number is expressed in.  Editing any of them silently rescales the
whole history, so they are never edited after the PR that added them; a
different machine class gets a new ledger, not a new ``K0``.
"""

from __future__ import annotations

import statistics
from heapq import heappop, heappush
from time import perf_counter

#: Nominal time of one kernel slice, seconds: the fast-phase median on the
#: 2-core box the ledger was created on (CPython 3.11).
K0 = 0.0053

#: Slices per calibration (odd, so the median is a measured value).
SLICES = 21

#: Kernel iterations per slice.
_SLICE_OPS = 5000


class _Cell:
    """A slotted object, like the simulator's events, SDUs and packets."""

    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self) -> int:
        self.value += 1
        return self.value


def kernel_slice() -> float:
    """Time one slice of the fixed pure-Python kernel; elapsed seconds.

    The mix is the simulator's own: heap push/pop (event queue), slotted
    object allocation (events, packets), dict stores (per-flow tables) and
    bound-method calls (callbacks) -- so the kernel slows down with the same
    interpreter and memory effects the workloads feel.
    """
    start = perf_counter()
    heap: list = []
    table: dict = {}
    state = 12345
    for index in range(_SLICE_OPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        cell = _Cell(state, index)
        heappush(heap, (state, index, cell))
        table[state & 0xFFF] = cell
        if index & 1:
            heappop(heap)[2].bump()
    while heap:
        heappop(heap)[2].bump()
    return perf_counter() - start


def calibrate() -> float:
    """The machine's speed right now: the median kernel-slice time, seconds."""
    return statistics.median(kernel_slice() for _ in range(SLICES))


def corrected(elapsed: float, calib_before: float, calib_after: float) -> float:
    """``elapsed`` in nominal-speed seconds, given the bracketing calibrations."""
    calib = (calib_before + calib_after) / 2.0
    if calib <= 0:
        raise ValueError("calibration time must be positive")
    return elapsed * K0 / calib
