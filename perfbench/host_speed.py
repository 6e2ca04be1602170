"""Host-speed calibration for the timed metrics.

On a shared machine the speed of the same Python code drifts by tens of
percent within seconds and between minutes, in CPU time as much as in wall
time, because other tenants contend for the physical cores.  A run therefore
also times a fixed pure-Python reference kernel (object allocation, calls,
dict and heap operations: the simulator's own mix) between timed intervals,
after every ``SAMPLE_INTERVAL`` seconds of timed work, outside the timed
regions.  An interval's speed factor is the median kernel time of the
``WINDOW`` samples on each side of it, over ``REFERENCE_KERNEL_SECONDS``, the
kernel's median time on the reference host: above 1 the host ran slower than
the reference.  Dividing an interval's seconds by its factor gives its
seconds at reference host speed.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Sequence, Tuple

#: Median CPU seconds of one ``reference_kernel()`` on the reference host
#: (2-CPU Linux container, Python 3.11.7).
REFERENCE_KERNEL_SECONDS = 0.0055

#: Seconds of timed work between two calibration samples.
SAMPLE_INTERVAL = 0.25

#: Kernels timed per sample (about 16 ms on the reference host).
KERNELS_PER_SAMPLE = 3

#: Samples on each side of an interval that set its speed factor.
WINDOW = 2


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _account(table: dict, item: _Item) -> int:
    table[item.key] = table.get(item.key, 0) + item.value
    return item.value


def reference_kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    table: dict = {}
    heap: list = []
    total = 0
    for i in range(4000):
        total += _account(table, _Item(i % 61, i))
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return total + len(table)


class HostSpeed:
    """Calibration samples interleaved with the timed intervals of one run."""

    def __init__(self, sample_interval: float = SAMPLE_INTERVAL) -> None:
        self._sample_interval = sample_interval
        #: CPU seconds per reference kernel, one entry per sample.
        self.samples: List[float] = []
        #: CPU seconds spent sampling, so callers can subtract it.
        self.sampling_seconds = 0.0
        self._intervals: List[Tuple[float, int]] = []
        self._since_sample = 0.0

    def sample(self) -> None:
        """Time ``KERNELS_PER_SAMPLE`` kernels; record the seconds per kernel."""
        start = time.process_time()
        for _ in range(KERNELS_PER_SAMPLE):
            reference_kernel()
        elapsed = time.process_time() - start
        self.samples.append(elapsed / KERNELS_PER_SAMPLE)
        self.sampling_seconds += elapsed
        self._since_sample = 0.0

    def record(self, seconds: float) -> int:
        """Record a timed interval, then sample if one is due; return its index."""
        self._intervals.append((seconds, len(self.samples)))
        self._since_sample += seconds
        if self._since_sample >= self._sample_interval:
            self.sample()
        return len(self._intervals) - 1

    def factor(self, before: int) -> float:
        """Host slowness relative to the reference host around sample *before*.

        The median of the ``WINDOW`` samples on each side: single samples
        are short enough to be noisy themselves.
        """
        window = self.samples[max(before - WINDOW, 0):before + WINDOW]
        return statistics.median(window) / REFERENCE_KERNEL_SECONDS

    def reference_seconds(self, index: int) -> float:
        """Interval *index* at reference host speed (needs a sample after it)."""
        seconds, before = self._intervals[index]
        return seconds / self.factor(before)

    def scaled(self, indices: Sequence[int], seconds: float) -> float:
        """*seconds* at the mean speed factor of the intervals *indices*."""
        raw = sum(self._intervals[i][0] for i in indices)
        reference = sum(self.reference_seconds(i) for i in indices)
        return seconds * reference / raw if raw else seconds
