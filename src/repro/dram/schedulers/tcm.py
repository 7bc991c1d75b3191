"""TCM: Thread Cluster Memory scheduling.

Prioritization order (paper Table 2):
1. requests from non-memory-intensive programs (latency cluster),
2. memory-intensive programs by periodically shuffled rank,
3. row-hit requests,
4. oldest requests.

Each quantum, cores are sorted by bandwidth consumed; the lightest cores
whose combined share stays below a threshold form the latency cluster,
the rest form the bandwidth cluster whose ranks rotate every quantum
(Kim et al., MICRO 2010's "insertion shuffle" approximated by rotation).

Rules 1 and 2 fold into one rank: latency-cluster cores all rank -1,
ahead of every bandwidth-cluster core (ranks 0, 1, ...). Before the
first quantum every core is in the latency cluster, so every rank is -1.
"""

from __future__ import annotations

import random

from repro.dram.bank import ChannelState
from repro.dram.queue import ChannelQueue, RequestQueue
from repro.dram.request import Request
from repro.dram.schedulers.base import READY_WINDOW_NS, Scheduler
from repro.units import left_sum

_QUANTUM_NS = 10_000.0
_CLUSTER_THRESHOLD = 0.15  # latency cluster's share of total traffic


class TCMScheduler(Scheduler):
    """Thread-cluster fairness scheduling."""

    name = "tcm"
    queue_class = ChannelQueue

    def __init__(self, n_cores: int, seed: int = 0):
        super().__init__(n_cores, seed)
        self._rng = random.Random(seed)
        self.quantum_bytes = [0.0] * n_cores
        self.latency_cluster = set(range(n_cores))
        self.rank = [-1] * n_cores
        self._next_quantum = _QUANTUM_NS

    def _reclassify(self) -> None:
        total = left_sum(self.quantum_bytes)
        order = sorted(range(self.n_cores), key=lambda c: self.quantum_bytes[c])
        self.latency_cluster = set()
        acc = 0.0
        for core in order:
            if total == 0 or (
                (acc + self.quantum_bytes[core]) <= _CLUSTER_THRESHOLD * total
            ):
                self.latency_cluster.add(core)
                acc += self.quantum_bytes[core]
        bandwidth_cores = [
            c for c in range(self.n_cores) if c not in self.latency_cluster
        ]
        self._rng.shuffle(bandwidth_cores)
        ranking = {core: i for i, core in enumerate(bandwidth_cores)}
        self.rank = [ranking.get(c, -1) for c in range(self.n_cores)]
        self.quantum_bytes = [0.0] * self.n_cores

    def _tick(self, now: float) -> None:
        while now >= self._next_quantum:
            self._reclassify()
            self._next_quantum += _QUANTUM_NS

    def select(
        self, queue: RequestQueue, channel: ChannelState, now: float
    ) -> Request:
        if now >= self._next_quantum:
            self._tick(now)
        return queue.best_head(channel, now, self.rank, READY_WINDOW_NS)

    def on_dispatch(self, request: Request, now: float) -> None:
        if now >= self._next_quantum:
            self._tick(now)
        self.quantum_bytes[request.core] += 64.0
