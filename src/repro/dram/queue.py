"""Channel request queues, one kind per scheduling policy.

The event loop appends requests as they arrive and removes the one the
scheduler picks. Each policy names the queue class that keeps what its
``select`` reads and nothing more (``Scheduler.queue_class``):

- :class:`ArrivalQueue` (FCFS): one insertion-ordered dict of every
  queued request, so :meth:`~ArrivalQueue.oldest` is its first entry.
- :class:`CoreQueue` (SMS): one such dict per core, read through
  :meth:`~CoreQueue.by_core`.
- :class:`ChannelQueue` (FR-FCFS, ATLAS, TCM): the dict of every
  request, plus the requests of each ``(bank, row, core)`` group.

Every dict keyed by ``req_id`` stays in ``(arrival_ns, req_id)`` order,
because ``append`` refuses a request that does not sort after the
previous one and removal never reorders a dict. ``CMPSystem.run`` meets
that order for free: simulated time never decreases and ids are issued
in event order.

A group's first request is its *head*, its oldest. Every policy selects
a group head: FCFS the oldest request, FR-FCFS the oldest open-row head
or the oldest request, ATLAS and TCM a head (below), and SMS a core's
oldest request with a given row, which is older than the rest of its
group. So a remove nearly always takes a head, and ``ChannelQueue``
stores each group's head instead of rebuilding it per select:
:meth:`~ChannelQueue.append` sets it when a group starts, and
:meth:`~ChannelQueue.remove` advances it when the head leaves and drops
it with the last request of the group.

Within a group, bank state and preparation time are shared and
``max(ready_at, arrival) + prep`` never decreases as arrival grows
(float rounding is monotone). So the group's ready requests are a
prefix of it, the group has a ready request exactly when its head is
ready, the head is the group's oldest ready request, and hit or miss is
the same for the whole group. Any selection that minimises
``(rank[core], miss, arrival_ns, req_id)`` over the ready requests (or
over all of them if none is ready) is therefore attained at a head:
:meth:`ChannelQueue.best_head` looks at one request per group instead of
the whole queue.

:class:`ScanQueue` is a plain list answering every policy's selection
methods by scanning every request. ``CMPSystem(queue_factory=ScanQueue)``
runs those scans for any policy and is the reference the tests compare
against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NoReturn, Sequence, Tuple, Union

from repro.dram.bank import ChannelState
from repro.dram.request import Request
from repro.errors import SimulationError


def _out_of_order(
    request: Request, last_arrival: float, last_id: int
) -> NoReturn:
    raise SimulationError(
        f"request {request.req_id} at {request.arrival_ns} ns appended "
        f"after request {last_id} at {last_arrival} ns"
    )


class ArrivalQueue:
    """Queued requests in arrival order: what FCFS reads."""

    __slots__ = ("_requests", "_last_arrival", "_last_id")

    def __init__(self) -> None:
        self._requests: Dict[int, Request] = {}
        # (arrival_ns, req_id) of the last append.
        self._last_arrival = float("-inf")
        self._last_id = -1

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests.values())

    def append(self, request: Request) -> None:
        """Queue ``request``; it must sort after every earlier append."""
        req_id = request.req_id
        arrival = request.arrival_ns
        last_arrival = self._last_arrival
        if arrival < last_arrival or (
            arrival == last_arrival and req_id <= self._last_id
        ):
            _out_of_order(request, last_arrival, self._last_id)
        self._last_arrival = arrival
        self._last_id = req_id
        self._requests[req_id] = request

    def remove(self, request: Request) -> None:
        """Dequeue ``request``; raises ``KeyError`` if it is absent."""
        del self._requests[request.req_id]

    def oldest(self) -> Request:
        """The earliest-arrived request (lowest ``req_id`` on a tie)."""
        return next(iter(self._requests.values()))


class CoreQueue:
    """Each core's queued requests in arrival order: what SMS reads."""

    __slots__ = ("_cores", "_last_arrival", "_last_id")

    def __init__(self) -> None:
        self._cores: Dict[int, Dict[int, Request]] = {}
        self._last_arrival = float("-inf")
        self._last_id = -1

    def __len__(self) -> int:
        return sum([len(requests) for requests in self._cores.values()])

    def append(self, request: Request) -> None:
        """Queue ``request``; it must sort after every earlier append."""
        req_id = request.req_id
        arrival = request.arrival_ns
        last_arrival = self._last_arrival
        if arrival < last_arrival or (
            arrival == last_arrival and req_id <= self._last_id
        ):
            _out_of_order(request, last_arrival, self._last_id)
        self._last_arrival = arrival
        self._last_id = req_id
        core = self._cores.get(request.core)
        if core is None:
            self._cores[request.core] = {req_id: request}
        else:
            core[req_id] = request

    def remove(self, request: Request) -> None:
        """Dequeue ``request``; raises ``KeyError`` if it is absent."""
        core = self._cores[request.core]
        del core[request.req_id]
        if not core:
            del self._cores[request.core]

    def by_core(self) -> Dict[int, Dict[int, Request]]:
        """Each core's queued requests keyed by ``req_id``, oldest first.

        The queue's own index: read it, do not modify it.
        """
        return self._cores


class ChannelQueue(ArrivalQueue):
    """Queued requests in arrival order and by ``(bank, row, core)``
    group: what FR-FCFS, ATLAS and TCM read."""

    __slots__ = ("_groups", "_heads")

    def __init__(self) -> None:
        super().__init__()
        self._groups: Dict[Tuple[int, int, int], Dict[int, Request]] = {}
        self._heads: Dict[Tuple[int, int, int], Request] = {}

    def append(self, request: Request) -> None:
        """Queue ``request``; it must sort after every earlier append."""
        req_id = request.req_id
        arrival = request.arrival_ns
        last_arrival = self._last_arrival
        if arrival < last_arrival or (
            arrival == last_arrival and req_id <= self._last_id
        ):
            _out_of_order(request, last_arrival, self._last_id)
        self._last_arrival = arrival
        self._last_id = req_id
        self._requests[req_id] = request
        group_key = (request.bank, request.row, request.core)
        group = self._groups.get(group_key)
        if group is None:
            self._groups[group_key] = {req_id: request}
            self._heads[group_key] = request
        else:
            group[req_id] = request

    def remove(self, request: Request) -> None:
        """Dequeue ``request``; raises ``KeyError`` if it is absent."""
        req_id = request.req_id
        del self._requests[req_id]
        group_key = (request.bank, request.row, request.core)
        group = self._groups[group_key]
        del group[req_id]
        if group:
            # The group's first request is its head, whichever one left.
            self._heads[group_key] = next(iter(group.values()))
        else:
            del self._groups[group_key]
            del self._heads[group_key]

    def open_row_hits(self, channel: ChannelState) -> List[Request]:
        """The head of each group whose bank has the group's row open.

        A group's requests share bank and row, so they hit or miss
        together, and its head is its oldest. The oldest of these heads
        is therefore the oldest queued row hit.
        """
        banks = channel.banks
        # lint: disable=LINT001 — append()'s order check makes each
        # group's head its oldest request, and callers reduce the heads
        # on the total (arrival_ns, req_id) key, so group order never
        # decides.
        return [
            head
            for (bank, row, _), head in self._heads.items()
            if banks[bank].open_row == row
        ]

    def best_head(
        self,
        channel: ChannelState,
        now: float,
        rank: Sequence[float],
        window_ns: float,
    ) -> Request:
        """The request minimising ``(rank[core], miss, arrival_ns,
        req_id)`` among those whose data burst could start by
        ``now + window_ns``, or among all of them if none could.

        The same request as that minimum over a per-request scan (module
        docstring), found from the group heads alone. Ready heads are
        compared field by field, so no key tuple is built per head.
        """
        banks = channel.banks
        timing = channel.timing
        activate = timing.t_rcd_ns
        conflict = timing.t_rp_ns + timing.t_rcd_ns
        # earliest_data_start(r) = max(now, prepared) <= now + window_ns
        # holds exactly when prepared <= now + window_ns does.
        limit = now + window_ns
        # The best ready head so far and its key fields.
        best = None
        best_miss = False
        best_arrival = 0.0
        # A head ranked worse than the best ready one cannot beat it.
        best_rank = float("inf")
        # lint: disable=LINT001 — append()'s order check makes each
        # group's head its oldest request, and heads are compared on the
        # total (rank, miss, arrival_ns, req_id) key, unique by req_id, so
        # group order never decides.
        for (bank_index, row, core), head in self._heads.items():
            head_rank = rank[core]
            if head_rank > best_rank:
                continue
            bank = banks[bank_index]
            # The preparation rule of BankState.prep_time, inlined.
            open_row = bank.open_row
            if open_row == row:
                miss = False
                prep = 0.0
            elif open_row is None:
                miss = True
                prep = activate
            else:
                miss = True
                prep = conflict
            arrival = head.arrival_ns
            ready_at = bank.ready_at
            if (ready_at if ready_at > arrival else arrival) + prep > limit:
                continue
            # Here head_rank <= best_rank.
            if best is not None and head_rank == best_rank:
                if miss != best_miss:
                    if miss:
                        continue
                elif arrival != best_arrival:
                    if arrival > best_arrival:
                        continue
                elif head.req_id > best.req_id:
                    continue
            best = head
            best_rank = head_rank
            best_miss = miss
            best_arrival = arrival
        if best is not None:
            return best
        # No head is ready, which is rare: the minimum over all of them.
        return min(
            self._heads.values(),
            key=lambda r: (
                rank[r.core], banks[r.bank].open_row != r.row, r.arrival_ns,
                r.req_id,
            ),
        )


class ScanQueue(list):
    """A channel queue as a plain list of requests, in any order.

    Answers the selection methods of every queue class above by
    scanning every request, with no index to keep up; a policy selects
    the same request from it as from its own queue.
    """

    __slots__ = ()

    def oldest(self) -> Request:
        """The earliest-arrived request (lowest ``req_id`` on a tie)."""
        return min(self, key=lambda r: (r.arrival_ns, r.req_id))

    def by_core(self) -> Dict[int, Dict[int, Request]]:
        """Each core's requests keyed by ``req_id``, oldest first."""
        cores: Dict[int, Dict[int, Request]] = {}
        for r in sorted(self, key=lambda r: (r.arrival_ns, r.req_id)):
            cores.setdefault(r.core, {})[r.req_id] = r
        return cores

    def open_row_hits(self, channel: ChannelState) -> List[Request]:
        """Every request whose bank has its row open."""
        return [r for r in self if channel.is_row_hit(r)]

    def ready(
        self, channel: ChannelState, now: float, window_ns: float
    ) -> List[Request]:
        """Requests whose data burst could start by ``now + window_ns``,
        or all of them if none could.

        Real controllers only issue *ready* commands; thread-priority
        rules apply among them. Restricting selection to the ready subset
        (when non-empty) lets bank preparation overlap the bus instead of
        stalling it. FCFS deliberately does not use this — head-of-line
        blocking is its defining flaw.
        """
        ready = [
            r
            for r in self
            if channel.earliest_data_start(r, now) <= now + window_ns
        ]
        return ready if ready else list(self)

    def best_head(
        self,
        channel: ChannelState,
        now: float,
        rank: Sequence[float],
        window_ns: float,
    ) -> Request:
        """The minimum of ``(rank[core], miss, arrival_ns, req_id)`` over
        :meth:`ready`: the best-ranked core's, row hits first, then the
        oldest."""
        return min(
            self.ready(channel, now, window_ns),
            key=lambda r: (
                rank[r.core], not channel.is_row_hit(r), r.arrival_ns, r.req_id
            ),
        )


RequestQueue = Union[ArrivalQueue, CoreQueue, ChannelQueue, ScanQueue]
"""What a scheduling policy selects from."""
