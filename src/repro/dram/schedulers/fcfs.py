"""First-come-first-serve: requests dispatched strictly chronologically.

No locality awareness: interleaved streams thrash row buffers, giving the
low row-hit rate and low effective bandwidth of the paper's Table 3, and
the proportional slowdown curves of Fig. 5(a).
"""

from __future__ import annotations

from repro.dram.bank import ChannelState
from repro.dram.queue import ArrivalQueue, RequestQueue
from repro.dram.request import Request
from repro.dram.schedulers.base import Scheduler


class FCFSScheduler(Scheduler):
    """Strictly chronological dispatch."""

    name = "fcfs"
    queue_class = ArrivalQueue

    def select(
        self, queue: RequestQueue, channel: ChannelState, now: float
    ) -> Request:
        return queue.oldest()
