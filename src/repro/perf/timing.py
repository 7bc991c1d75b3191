"""Wall-clock access for harness code — the only sanctioned clock.

Model and simulator code must never read the host clock (simulated time
comes from the engines; LINT011 enforces this). Harness layers that
legitimately need elapsed wall time — the experiment runner's banners,
the parallel job outcomes — import it from here, keeping every host
clock read in one greppable, mockable place.
"""

from __future__ import annotations

import time
from typing import Optional


def wall_clock_seconds() -> float:
    """Monotonic wall-clock reading for measuring elapsed harness time."""
    return time.perf_counter()


class Stopwatch:
    """Elapsed-time helper for harness reporting.

    >>> watch = Stopwatch()
    >>> # ... work ...
    >>> watch.elapsed() >= 0
    True
    """

    def __init__(self) -> None:
        self._start = wall_clock_seconds()
        self._stopped: Optional[float] = None

    def stop(self) -> float:
        """Freeze and return the elapsed seconds."""
        if self._stopped is None:
            self._stopped = wall_clock_seconds() - self._start
        return self._stopped

    def elapsed(self) -> float:
        """Elapsed seconds so far (or at :meth:`stop` time, if frozen)."""
        if self._stopped is not None:
            return self._stopped
        return wall_clock_seconds() - self._start


__all__ = ["Stopwatch", "wall_clock_seconds"]
