"""The machine's speed, measured between requests, and times scaled to it.

The benchmark runs on a shared machine whose speed drifts by a third and
more, from one second to the next and from one minute to the next, while
the process keeps its CPU: other tenants slow the same cores.  A run that
happened to fall in a slow minute would read as a slower program.  So a
fixed pure-Python probe, which calls no maltsev code and allocates almost
nothing, runs between requests at least every ``EVERY_S`` seconds, and each
request's wall time is scaled by ``REFERENCE_S`` over the median time of
the probes run within ``WINDOW_S`` of it.  The end-to-end times the
benchmark reports are thus those of a machine on which the probe takes
``REFERENCE_S``: a faster or slower program moves them, the machine's drift
mostly does not.  The wall times are printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0025  # about the probe's median time on the 2-vCPU machine the bounds were set on
EVERY_S = 0.1
WINDOW_S = 0.5
AT_LEAST = 5


def probe() -> float:
    """Seconds taken by a fixed loop of dict and integer work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 97] = (table.get(i % 53, 0) + i) % 1009
    return time.perf_counter() - start


class Pace:
    """Probe times, in the order they were taken, on the clock of
    ``time.perf_counter``."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.last = float("-inf")

    def probe(self) -> None:
        at = time.perf_counter()
        self.took.append(probe())
        self.at.append(at)
        self.last = time.perf_counter()

    def tick(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe ended."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S of the
        interval, or of the AT_LEAST probes nearest it if fewer fall there."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < AT_LEAST:
            k = bisect.bisect_left(self.at, start)
            lo = max(0, min(k - AT_LEAST // 2, len(self.at) - AT_LEAST))
            hi = lo + AT_LEAST
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.took)
