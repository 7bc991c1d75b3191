"""Channel queue indexing, buffer-waiter FIFO, and fast-path equivalence."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dram.bank import ChannelState
from repro.dram.cores import CoreConfig, CoreState
from repro.dram.queue import (
    ArrivalQueue,
    ChannelQueue,
    CoreQueue,
    ScanQueue,
)
from repro.dram.request import Request
from repro.dram.schedulers.base import READY_WINDOW_NS
from repro.dram.system import BufferWaitQueue, CMPSystem
from repro.dram.timing import DDR4_3200
from repro.errors import SimulationError

from tests.dram.strategies import POLICIES, mixed_cores, sim_inputs

REQUESTS = 250

#: Every indexed queue class: FCFS's, SMS's and the other policies'.
QUEUE_CLASSES = (ArrivalQueue, CoreQueue, ChannelQueue)


def make_request(req_id, bank=0, row=0, arrival=0.0, core=0):
    return Request(
        req_id=req_id,
        core=core,
        channel=0,
        bank=bank,
        row=row,
        arrival_ns=arrival,
    )


class TestChannelQueue:
    def test_append_iter_len(self):
        queue = ChannelQueue()
        requests = [make_request(i, bank=i % 2) for i in range(5)]
        for r in requests:
            queue.append(r)
        assert len(queue) == 5
        assert bool(queue)
        assert set(r.req_id for r in queue) == set(range(5))

    def test_remove_is_membership_exact(self):
        queue = ChannelQueue()
        requests = [make_request(i) for i in range(4)]
        for r in requests:
            queue.append(r)
        queue.remove(requests[1])
        assert set(r.req_id for r in queue) == {0, 2, 3}
        with pytest.raises(KeyError):
            queue.remove(requests[1])
        queue.remove(requests[3])  # tail element: plain pop
        queue.remove(requests[0])
        queue.remove(requests[2])
        assert len(queue) == 0 and not queue

    def test_open_row_hits_matches_scan(self):
        """open_row_hits returns exactly the head of each open-row group,
        and their oldest is the oldest row hit a full scan finds."""
        queue = ChannelQueue()
        channel = ChannelState(index=0, timing=DDR4_3200)
        requests = [
            make_request(i, bank=i % 3, row=i % 2, arrival=float(i))
            for i in range(12)
        ]
        for r in requests:
            queue.append(r)
        channel.bank(0).open_row = 0
        channel.bank(1).open_row = 1
        hits = [r for r in requests if channel.is_row_hit(r)]
        # bank 0 row 0: ids 0, 6; bank 1 row 1: ids 1, 7
        assert [r.req_id for r in hits] == [0, 1, 6, 7]
        heads = queue.open_row_hits(channel)
        assert {r.req_id for r in heads} == {0, 1}
        assert ScanQueue(heads).oldest() is ScanQueue(hits).oldest()
        # removing a head advances its group to the next request
        queue.remove(requests[0])
        hits.remove(requests[0])
        heads = queue.open_row_hits(channel)
        assert {r.req_id for r in heads} == {1, 6}
        assert ScanQueue(heads).oldest() is ScanQueue(hits).oldest()
        # removing a group's last request drops the group
        queue.remove(requests[6])
        assert {r.req_id for r in queue.open_row_hits(channel)} == {1}

    def test_scheduler_row_hits_uses_index(self):
        queue = ChannelQueue()
        channel = ChannelState(index=0, timing=DDR4_3200)
        for i in range(6):
            queue.append(make_request(i, bank=0, row=i % 2, core=i % 3))
        channel.bank(0).open_row = 1
        # the index answers with one head per open-row (bank, row, core)
        # group: ids 1 (core 1), 3 (core 0) and 5 (core 2)
        heads = queue.open_row_hits(channel)
        assert sorted(r.req_id for r in heads) == [1, 3, 5]
        # a ScanQueue takes the scan path and returns every hit
        scan = ScanQueue(queue).open_row_hits(channel)
        assert sorted(r.req_id for r in scan) == [1, 3, 5]
        assert ScanQueue(heads).oldest() is ScanQueue(scan).oldest()
        # a second core-0 hit queues behind its group's head, id 3
        queue.append(make_request(6, bank=0, row=1, core=0))
        heads = queue.open_row_hits(channel)
        scan = ScanQueue(queue).open_row_hits(channel)
        assert sorted(r.req_id for r in heads) == [1, 3, 5]
        assert sorted(r.req_id for r in scan) == [1, 3, 5, 6]
        assert ScanQueue(heads).oldest() is ScanQueue(scan).oldest()

    def test_append_rejects_out_of_order(self):
        queue = ChannelQueue()
        queue.append(make_request(1, arrival=5.0))
        with pytest.raises(SimulationError):
            queue.append(make_request(2, arrival=4.0))
        with pytest.raises(SimulationError):
            queue.append(make_request(0, arrival=5.0))  # same time, lower id
        queue.append(make_request(2, arrival=5.0))

    def test_arrival_order_survives_removal(self):
        queue = ChannelQueue()
        requests = [
            make_request(i, bank=i % 2, core=i % 3, arrival=float(i))
            for i in range(6)
        ]
        for r in requests:
            queue.append(r)
        queue.remove(requests[0])
        queue.remove(requests[3])
        assert [r.req_id for r in queue] == [1, 2, 4, 5]
        assert queue.oldest() is requests[1]


class TestCoreQueue:
    def test_by_core_order_survives_removal(self):
        queue = CoreQueue()
        requests = [
            make_request(i, bank=i % 2, core=i % 3, arrival=float(i))
            for i in range(6)
        ]
        for r in requests:
            queue.append(r)
        queue.remove(requests[0])
        queue.remove(requests[3])
        assert len(queue) == 4
        by_core = queue.by_core()
        assert {core: list(rs) for core, rs in by_core.items()} == {
            1: [1, 4],
            2: [2, 5],
        }
        # a core's last request leaving drops the core
        queue.remove(requests[1])
        queue.remove(requests[4])
        assert list(queue.by_core()) == [2]
        assert len(queue) == 2


@pytest.mark.parametrize("queue_class", (ArrivalQueue, CoreQueue))
class TestFCFSAndSMSQueues:
    """``TestChannelQueue``'s order and removal cases on the other two
    queue classes."""

    def test_append_rejects_out_of_order(self, queue_class):
        queue = queue_class()
        queue.append(make_request(1, arrival=5.0))
        with pytest.raises(SimulationError):
            queue.append(make_request(2, arrival=4.0))
        with pytest.raises(SimulationError):
            queue.append(make_request(0, arrival=5.0))  # same time, lower id
        queue.append(make_request(2, arrival=5.0))
        assert len(queue) == 2

    def test_remove_is_membership_exact(self, queue_class):
        queue = queue_class()
        requests = [make_request(i, core=i % 2) for i in range(4)]
        for r in requests:
            queue.append(r)
        queue.remove(requests[1])
        assert len(queue) == 3
        with pytest.raises(KeyError):
            queue.remove(requests[1])
        for i in (3, 0, 2):
            queue.remove(requests[i])
        assert len(queue) == 0


@st.composite
def channel_snapshots(draw):
    """A channel's bank state plus arrival-ordered requests that often
    share a (bank, row) across cores."""
    channel = ChannelState(index=0, timing=DDR4_3200)
    for bank in channel.banks:
        bank.open_row = draw(st.sampled_from((None, 0, 1)))
        bank.ready_at = draw(st.sampled_from((0.0, 20.0, 37.5, 60.0)))
    arrivals = sorted(draw(st.lists(
        st.sampled_from((0.0, 2.5, 10.0, 25.0, 40.0)), min_size=1, max_size=24
    )))
    requests = [
        make_request(
            i,
            bank=draw(st.integers(0, 3)),
            row=draw(st.integers(0, 2)),
            arrival=arrival,
            core=draw(st.integers(0, 3)),
        )
        for i, arrival in enumerate(arrivals)
    ]
    rank = draw(st.lists(st.sampled_from((-1, 0, 1, 2.5)), min_size=4, max_size=4))
    now = draw(st.sampled_from((0.0, 30.0, 45.0, 70.0)))
    return channel, requests, rank, now


@settings(max_examples=300, derandomize=True, deadline=None)
@given(snapshot=channel_snapshots())
def test_best_head_matches_per_request_scan(snapshot):
    """Selecting from group heads equals the ready-subset scan over
    every request, whichever cores share a (bank, row)."""
    channel, requests, rank, now = snapshot
    queue = ChannelQueue()
    for r in requests:
        queue.append(r)
    assert queue.best_head(channel, now, rank, READY_WINDOW_NS) is (
        ScanQueue(requests).best_head(channel, now, rank, READY_WINDOW_NS)
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_head_upkeep_under_removal(data):
    """Arrival-ordered appends interleaved with removals of any queued
    request, head or not: after every step the stored group heads give
    the answers of the per-request scans over ``ScanQueue(queue)``. Few
    banks, rows and cores keep groups long, so removals often leave a
    group behind a removed non-head."""
    channel, _, rank, now = data.draw(channel_snapshots())
    queue = ChannelQueue()
    arrival = 0.0
    next_id = 0
    for _ in range(data.draw(st.integers(1, 40))):
        queued = list(queue)
        # one step in three removes, so the queue grows
        if queued and data.draw(st.integers(0, 2)) == 0:
            queue.remove(data.draw(st.sampled_from(queued)))
        else:
            arrival += data.draw(st.sampled_from((0.0, 2.5, 10.0)))
            queue.append(make_request(
                next_id,
                bank=data.draw(st.integers(0, 1)),
                row=data.draw(st.integers(0, 1)),
                arrival=arrival,
                core=data.draw(st.integers(0, 2)),
            ))
            next_id += 1
        scan = ScanQueue(queue)
        if not scan:
            continue
        assert queue.best_head(channel, now, rank, READY_WINDOW_NS) is (
            scan.best_head(channel, now, rank, READY_WINDOW_NS)
        )
        assert queue.oldest() is scan.oldest()
        heads = queue.open_row_hits(channel)
        hits = scan.open_row_hits(channel)
        assert bool(heads) == bool(hits)
        if hits:
            assert ScanQueue(heads).oldest() is ScanQueue(hits).oldest()


def group_heads(requests):
    """The oldest of each ``(bank, row, core)`` group of ``requests``."""
    heads = {}
    for r in sorted(requests, key=lambda r: (r.arrival_ns, r.req_id)):
        heads.setdefault((r.bank, r.row, r.core), r)
    return set(heads.values())


def core_lists(by_core):
    """``by_core()`` as each core's ``req_id`` list, in queue order."""
    return {core: list(requests) for core, requests in by_core.items()}


@st.composite
def selections(draw):
    """``best_head``'s arguments after the channel: a time, core ranks
    with ties and a ready window."""
    return (
        draw(st.sampled_from((0.0, 20.0, 30.0, 45.0, 70.0))),
        draw(st.lists(
            st.sampled_from((-1, 0, 1, 2.5)), min_size=4, max_size=4
        )),
        draw(st.sampled_from((0.0, READY_WINDOW_NS, 12.5, 50.0))),
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_queue_answers_as_scan(data):
    """Arrival-ordered appends interleaved with removals of requests a
    selection method picked: after every step each queue class answers
    its methods as ``ScanQueue`` does over the same requests, for random
    ranks, times and ready windows."""
    channel = data.draw(channel_snapshots())[0]
    arrival_queue, core_queue, channel_queue = queues = [
        queue_class() for queue_class in QUEUE_CLASSES
    ]
    queued = []
    arrival = 0.0
    for next_id in range(data.draw(st.integers(1, 30))):
        scan = ScanQueue(queued)
        selection = data.draw(selections())
        if scan and data.draw(st.integers(0, 2)) == 0:
            # Every policy removes what one of these methods picked.
            picked = [scan.oldest(), scan.best_head(channel, *selection)]
            picked += [
                next(iter(rs.values())) for rs in scan.by_core().values()
            ]
            picked += group_heads(scan.open_row_hits(channel))
            request = data.draw(st.sampled_from(
                sorted(set(picked), key=lambda r: r.req_id)
            ))
            queued.remove(request)
            for queue in queues:
                queue.remove(request)
        else:
            arrival += data.draw(st.sampled_from((0.0, 2.5, 10.0)))
            request = make_request(
                next_id,
                bank=data.draw(st.integers(0, 3)),
                row=data.draw(st.integers(0, 1)),
                arrival=arrival,
                core=data.draw(st.integers(0, 3)),
            )
            queued.append(request)
            for queue in queues:
                queue.append(request)
        scan = ScanQueue(queued)
        assert [len(queue) for queue in queues] == [len(scan)] * 3
        if not scan:
            continue
        assert arrival_queue.oldest() is scan.oldest()
        assert channel_queue.oldest() is scan.oldest()
        assert core_lists(core_queue.by_core()) == core_lists(scan.by_core())
        assert set(channel_queue.open_row_hits(channel)) == group_heads(
            scan.open_row_hits(channel)
        )
        selection = data.draw(selections())
        assert channel_queue.best_head(channel, *selection) is (
            scan.best_head(channel, *selection)
        )


class TestBufferWaitQueue:
    def _state(self, index):
        return CoreState(
            index=index,
            config=CoreConfig(demand_gbps=1.0, total_requests=1),
        )

    def test_fifo_wakeup_order(self):
        waiters = BufferWaitQueue()
        states = [self._state(i) for i in range(4)]
        for s in (states[2], states[0], states[3], states[1]):
            waiters.add(s)
        assert [waiters.pop().index for _ in range(4)] == [2, 0, 3, 1]
        assert waiters.pop() is None

    def test_no_duplicate_enqueue(self):
        waiters = BufferWaitQueue()
        state = self._state(0)
        other = self._state(1)
        waiters.add(state)
        waiters.add(state)  # second block event before any wakeup
        waiters.add(other)
        assert len(waiters) == 2
        assert waiters.pop() is state
        assert not state.buffer_waiting
        # once woken, the core may legitimately wait again
        waiters.add(state)
        assert [waiters.pop().index for _ in range(2)] == [1, 0]


class TestFastQueueEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical_to_list_queue(self, policy):
        fast = CMPSystem(policy=policy, seed=3).run(mixed_cores(6, REQUESTS))
        slow = CMPSystem(policy=policy, seed=3, queue_factory=ScanQueue).run(
            mixed_cores(6, REQUESTS)
        )
        assert fast == slow

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(
        max_examples=8,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_configs_match_list_queue(self, policy, data):
        sim = data.draw(sim_inputs(policy))
        assert sim.run() == sim.run(queue_factory=ScanQueue)

    @pytest.mark.parametrize("policy", ("frfcfs", "tcm"))
    def test_blocked_core_wakeups_identical_with_tiny_buffer(self, policy):
        """Regression: deque waiters must preserve the blocked-core
        wakeup order (and never double-enqueue) when the request buffer
        keeps filling up."""
        timing = dataclasses.replace(DDR4_3200, request_buffer=8)
        fast = CMPSystem(timing=timing, policy=policy).run(
            mixed_cores(8, REQUESTS)
        )
        slow = CMPSystem(
            timing=timing, policy=policy, queue_factory=ScanQueue
        ).run(mixed_cores(8, REQUESTS))
        assert fast == slow
        for core in fast.cores:
            assert core.completed == core.issued == REQUESTS
        assert all(c.finish_ns is not None for c in fast.cores)

    def test_stop_cores_with_fast_queue(self):
        fast = CMPSystem(policy="frfcfs").run(
            mixed_cores(6, REQUESTS), stop_cores={0}
        )
        slow = CMPSystem(policy="frfcfs", queue_factory=ScanQueue).run(
            mixed_cores(6, REQUESTS), stop_cores={0}
        )
        assert fast == slow
        assert fast.cores[0].finish_ns is not None
