"""Scheduler interface shared by all policies."""

from __future__ import annotations

from repro.dram.bank import ChannelState
from repro.dram.queue import RequestQueue, ScanQueue
from repro.dram.request import Request
from repro.errors import SimulationError

READY_WINDOW_NS = 3.0
"""A request is *ready* when its data burst could start this soon."""


class Scheduler:
    """Chooses which queued request a channel dispatches next.

    One scheduler instance serves all channels of the controller so
    policies with global per-core state (attained service, clustering)
    see the full picture. Subclasses implement :meth:`select`.

    Policies select through the queue's own methods (``oldest``,
    ``best_head``, ``open_row_hits``, ``by_core``). Each policy names in
    :attr:`queue_class` the queue that answers what its ``select`` reads
    from an index (:mod:`repro.dram.queue`), and ``CMPSystem.run`` builds
    one per channel. A :class:`~repro.dram.queue.ScanQueue` answers every
    method by scanning every request, and a policy selects the same
    request from it as from its own queue.
    """

    name = "base"
    queue_class: type = ScanQueue

    def __init__(self, n_cores: int, seed: int = 0):
        if n_cores <= 0:
            raise SimulationError("n_cores must be positive")
        self.n_cores = n_cores
        self.seed = seed

    def select(
        self, queue: RequestQueue, channel: ChannelState, now: float
    ) -> Request:
        """Pick the next request to dispatch from a non-empty queue."""
        raise NotImplementedError

    def on_dispatch(self, request: Request, now: float) -> None:
        """Notification hook after a request is dispatched.

        This base version does nothing, and the engine does not call it
        for a policy that does not override it.
        """
