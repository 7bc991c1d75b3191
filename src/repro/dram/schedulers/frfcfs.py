"""First-ready FCFS (Rixner et al.): row hits first, then oldest.

Maximizes row-buffer hit rate and bus utilization but has no fairness
control — memory-intensive streams starve lighter ones (Fig. 5(b)).
"""

from __future__ import annotations

from repro.dram.bank import ChannelState
from repro.dram.queue import ChannelQueue, RequestQueue
from repro.dram.request import Request
from repro.dram.schedulers.base import Scheduler


class FRFCFSScheduler(Scheduler):
    """Row-hit-first dispatch."""

    name = "frfcfs"
    queue_class = ChannelQueue

    def select(
        self, queue: RequestQueue, channel: ChannelState, now: float
    ) -> Request:
        hits = queue.open_row_hits(channel)
        if not hits:
            return queue.oldest()
        # The oldest hit by (arrival_ns, req_id), the same minimum as
        # min(key=...) without a key call per hit.
        best = hits[0]
        best_arrival = best.arrival_ns
        for hit in hits:
            arrival = hit.arrival_ns
            if arrival < best_arrival or (
                arrival == best_arrival and hit.req_id < best.req_id
            ):
                best, best_arrival = hit, arrival
        return best
