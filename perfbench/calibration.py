"""Host-speed calibration for the end-to-end timings.

A shared host runs everything faster or slower, by up to a third, for
seconds at a time.  :class:`Calibration` is fixed pure-Python work that
uses nothing from the program; timing it just before and just after a
measured step, with nothing else of the benchmark running, gives the
host's speed at that moment, and :func:`host_factor` turns samples into
the factor that scales the step's duration to a reference speed.
:class:`StepTimer` times a phase in short steps with the calibration work
between them, so the factor follows the host's speed through the phase.
"""

from __future__ import annotations

import gc
import heapq
import time
from array import array
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.stats import median

#: Seconds the calibration work takes on the reference host (2-CPU x86-64,
#: Python 3.11).  Only a unit conversion: any constant gives
#: the same comparisons between commits.
REFERENCE_S = 0.025


def host_factor(samples) -> float:
    """Host speed factor: median calibration time over the reference."""
    return median(samples) / REFERENCE_S


class Calibration:
    """Dict updates with small tuples and a sort, a heap of small objects,
    and random reads over a 2 MiB array and a 20000-entry dict (so cache
    misses count as they do in the simulator).  Timed with the garbage
    collector off, so the program's heap cannot change it."""

    def __init__(self) -> None:
        rng = Random(7)
        self.array = array("q", range(1 << 18))
        self.reads = [rng.randrange(1 << 18) for __ in range(15000)]
        self.table = {index: index for index in range(20000)}
        self.keys = [rng.randrange(20000) for __ in range(15000)]

    def __call__(self) -> float:
        """Wall seconds of one pass of the work."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._work()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def _work(self) -> int:
        rng = Random(12345)
        counts: Dict[int, int] = {}
        items = []
        for index in range(10000):
            key = rng.randrange(512)
            counts[key] = counts.get(key, 0) + index
            items.append((key, index))
        items.sort()
        heap = []
        for index in range(3000):
            heapq.heappush(heap, (rng.random(), index, _Node(index)))
        total = 0
        while heap:
            total += heapq.heappop(heap)[2].value
        values, table = self.array, self.table
        for position in self.reads:
            total += values[position]
        for key in self.keys:
            total += table[key]
        return total


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class StepTimer:
    """Wall time of the steps of named phases.

    With a :class:`Calibration`, the calibration work runs before the
    first step and after every step, and each step's time is also
    recorded divided by the host factor of the samples on both sides of
    it.  Without one, the steps run back to back and the calibrated time
    is the raw time (the traced pass: the same steps, no calibration)."""

    def __init__(self, calibration: Optional[Calibration] = None) -> None:
        self.calibration = calibration
        self.samples: List[float] = []
        #: phase -> [(raw seconds, calibrated seconds)] per step
        self.steps: Dict[str, List[Tuple[float, float]]] = {}

    def step(self, phase: str, work: Callable, *args, **kwargs):
        """Run ``work(*args, **kwargs)`` as one timed step of *phase*."""
        if self.calibration is not None and not self.samples:
            self.samples.append(self.calibration())
        started = time.perf_counter()
        result = work(*args, **kwargs)
        wall = time.perf_counter() - started
        factor = 1.0
        if self.calibration is not None:
            self.samples.append(self.calibration())
            factor = host_factor(self.samples[-2:])
        self.steps.setdefault(phase, []).append((wall, wall / factor))
        return result

    def total(self, phase: str) -> Tuple[float, float]:
        """``(raw, calibrated)`` seconds of all the steps of *phase*."""
        steps = self.steps.get(phase, [])
        return sum(raw for raw, __ in steps), sum(cal for __, cal in steps)
