"""Host-speed normalisation for CPU-bound timings.

On a shared host the interpreter's speed drifts by tens of percent over
seconds to minutes, far more than the changes the benchmark must resolve.
A Speedometer times a block of code and, while it runs, samples the current
speed with a fixed calibration workload: once before, once after, and on a
timer signal every SAMPLE_INTERVAL_S in between.  ``normalized()`` is the
block's host time (sampling time excluded) scaled to a host where one
calibration pass takes NOMINAL_CALIBRATION_S:

    normalized = host_time * NOMINAL_CALIBRATION_S / mean(calibration samples)

The calibration is the benchmark's own code and never calls the program, so
a change to the program moves the normalized time and a change in host
speed does not.  Only use it around code running on the main thread.
"""

import signal
import statistics
from time import perf_counter

SAMPLE_INTERVAL_S = 0.05
# about the mean calibration pass on the 2-vCPU host the benchmark was tuned
# on, so normalized times are of the order of that host's wall-clock times
NOMINAL_CALIBRATION_S = 0.0011
_CALIBRATION_ITEMS = 600


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibrate() -> int:
    """Fixed object-heavy Python work: allocation, attribute access, dict
    lookups, list scans and comprehensions, as the engine's hot loops do."""
    items = [_Item(f"k{i}", i) for i in range(_CALIBRATION_ITEMS)]
    index = {item.key: item for item in items}
    total = 0
    for item in items:
        other = index[item.key]
        if other.value % 3 == 0:
            total += len([x for x in items[:20] if x.value > other.value])
        total += sum(1 for x in items[:10] if x.key == item.key)
    return total


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []
        self._sampling_s = 0.0
        self._start = self._end = 0.0

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        calibrate()
        took = perf_counter() - start
        self.samples.append(took)
        self._sampling_s += took

    def __enter__(self):
        self._sample()
        self._sampling_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self._end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        sampling_inside = self._sampling_s
        self._sample()
        self._sampling_s = sampling_inside
        return False

    def host_s(self) -> float:
        """Wall-clock time of the block, without the samples taken in it."""
        return self._end - self._start - self._sampling_s

    def normalized(self) -> float:
        return self.host_s() * NOMINAL_CALIBRATION_S / statistics.fmean(self.samples)
