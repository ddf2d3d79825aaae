"""Correction for the speed swings of a shared machine.

On the 2-core machine this benchmark was tuned on, other tenants change
how fast a core runs Python by up to ±20% for seconds at a time.  The
same work then reads 5.1 to 8.3 items/s across ten runs.  A fixed integer
loop, timed every 50 ms between items, tracks those swings: dividing a
pass time by it halved the pass-to-pass spread of identical work.  Every
timing the benchmark reports is therefore multiplied by
`REFERENCE_S / reading`, which expresses it at the speed where the loop
takes REFERENCE_S.  The raw readings go into the provenance line.
"""

import statistics
import time
from collections import deque

LOOPS = 5_000
REFERENCE_S = 4.0e-4  # about the loop's median duration on the tuning machine
EVERY_S = 0.05


def calibration_seconds():
    """Time one run of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Scale factor to the reference speed, from the median of the last
    three readings, taken at most every EVERY_S."""

    def __init__(self):
        self.recent = deque(maxlen=3)
        self.readings = []
        self._last = -float("inf")

    def scale(self):
        if time.perf_counter() - self._last >= EVERY_S:
            reading = calibration_seconds()
            self.recent.append(reading)
            self.readings.append(reading)
            self._last = time.perf_counter()
        return REFERENCE_S / statistics.median(self.recent)


def fresh_scale():
    """The scale factor from three readings taken now."""
    return REFERENCE_S / statistics.median(calibration_seconds() for _ in range(3))
