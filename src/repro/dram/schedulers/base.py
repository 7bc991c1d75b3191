"""Scheduler interface shared by all policies."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.dram.bank import ChannelState
from repro.dram.queue import ChannelQueue
from repro.dram.request import Request
from repro.errors import SimulationError

READY_WINDOW_NS = 3.0
"""A request is *ready* when its data burst could start this soon."""


class Scheduler:
    """Chooses which queued request a channel dispatches next.

    One scheduler instance serves all channels of the controller so
    policies with global per-core state (attained service, clustering)
    see the full picture. Subclasses implement :meth:`select`.

    Policies select through the helpers below. Each answers from the
    index of a :class:`~repro.dram.queue.ChannelQueue` and by scanning
    any other sequence of requests, and a policy selects the same
    request either way.
    """

    name = "base"

    def __init__(self, n_cores: int, seed: int = 0):
        if n_cores <= 0:
            raise SimulationError("n_cores must be positive")
        self.n_cores = n_cores
        self.seed = seed

    def select(
        self, queue: Sequence[Request], channel: ChannelState, now: float
    ) -> Request:
        """Pick the next request to dispatch from a non-empty queue."""
        raise NotImplementedError

    def on_dispatch(self, request: Request, now: float) -> None:
        """Notification hook after a request is dispatched."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def oldest(requests: Sequence[Request]) -> Request:
        """FCFS tiebreaker: earliest arrival, then lowest id."""
        if isinstance(requests, ChannelQueue):
            return requests.oldest()
        return min(requests, key=lambda r: (r.arrival_ns, r.req_id))

    @staticmethod
    def row_hits(
        requests: Sequence[Request], channel: ChannelState
    ) -> List[Request]:
        """Row-hit requests whose oldest is the oldest queued row hit.

        A :class:`ChannelQueue` returns only the head of each open-row
        group; any other sequence returns every row hit.
        """
        if isinstance(requests, ChannelQueue):
            return requests.open_row_hits(channel)
        return [r for r in requests if channel.is_row_hit(r)]

    def hit_first_oldest(
        self, requests: Sequence[Request], channel: ChannelState
    ) -> Request:
        """Prefer row hits, then oldest — the FR-FCFS core rule."""
        hits = self.row_hits(requests, channel)
        return self.oldest(hits) if hits else self.oldest(requests)

    @staticmethod
    def best_head(
        requests: Sequence[Request],
        channel: ChannelState,
        now: float,
        rank: Sequence[float],
    ) -> Request:
        """Among the ready requests (all of them if none is ready): the
        best-ranked core's, row hits first, then the oldest.

        That is the minimum of ``(rank[core], miss, arrival_ns,
        req_id)``; a lower rank is served first.
        """
        if isinstance(requests, ChannelQueue):
            return requests.best_head(channel, now, rank, READY_WINDOW_NS)
        return min(
            Scheduler.ready_subset(requests, channel, now),
            key=lambda r: (
                rank[r.core], not channel.is_row_hit(r), r.arrival_ns, r.req_id
            ),
        )

    @staticmethod
    def by_core(requests: Sequence[Request]) -> Dict[int, Dict[int, Request]]:
        """Each core's requests keyed by ``req_id``, oldest first."""
        if isinstance(requests, ChannelQueue):
            return requests.by_core()
        cores: Dict[int, Dict[int, Request]] = {}
        for r in sorted(requests, key=lambda r: (r.arrival_ns, r.req_id)):
            cores.setdefault(r.core, {})[r.req_id] = r
        return cores

    @staticmethod
    def ready_subset(
        requests: Sequence[Request],
        channel: ChannelState,
        now: float,
        window_ns: float = READY_WINDOW_NS,
    ) -> List[Request]:
        """Requests whose data burst could start almost immediately.

        Real controllers only issue *ready* commands; thread-priority
        rules apply among them. Restricting selection to the ready subset
        (when non-empty) lets bank preparation overlap the bus instead of
        stalling it. FCFS deliberately does not use this — head-of-line
        blocking is its defining flaw.
        """
        ready = [
            r
            for r in requests
            if channel.earliest_data_start(r, now) <= now + window_ns
        ]
        return ready if ready else list(requests)
