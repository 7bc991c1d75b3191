"""ATLAS: Adaptive per-Thread Least-Attained-Service scheduling.

Prioritization order (paper Table 2):
1. over-threshold requests (waited too long),
2. requests from the thread that has attained the least service,
3. row-hit requests,
4. oldest requests.

Attained service is tracked per core in service time and exponentially
decayed each quantum, as in Kim et al. (HPCA 2010). Quantum lengths are
scaled down to the microsecond runs this simulator executes.
"""

from __future__ import annotations

from repro.dram.bank import ChannelState
from repro.dram.queue import ChannelQueue, RequestQueue
from repro.dram.request import Request
from repro.dram.schedulers.base import READY_WINDOW_NS, Scheduler

_QUANTUM_NS = 10_000.0
_DECAY = 0.875
_OVER_THRESHOLD_NS = 2_000.0
_SERVICE_PER_REQUEST = 1.0


class AtlasScheduler(Scheduler):
    """Least-attained-service fairness scheduling."""

    name = "atlas"
    queue_class = ChannelQueue

    def __init__(self, n_cores: int, seed: int = 0):
        super().__init__(n_cores, seed)
        self.attained = [0.0] * n_cores
        self._next_quantum = _QUANTUM_NS

    def _tick(self, now: float) -> None:
        while now >= self._next_quantum:
            self.attained = [s * _DECAY for s in self.attained]
            self._next_quantum += _QUANTUM_NS

    def select(
        self, queue: RequestQueue, channel: ChannelState, now: float
    ) -> Request:
        if now >= self._next_quantum:
            self._tick(now)
        # now - arrival never grows with arrival, so if any request is
        # over the threshold the oldest one is, and it is the oldest over.
        oldest = queue.oldest()
        if now - oldest.arrival_ns > _OVER_THRESHOLD_NS:
            return oldest
        return queue.best_head(channel, now, self.attained, READY_WINDOW_NS)

    def on_dispatch(self, request: Request, now: float) -> None:
        if now >= self._next_quantum:
            self._tick(now)
        self.attained[request.core] += _SERVICE_PER_REQUEST
