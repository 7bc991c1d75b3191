"""Scheduling policies: selection rules on crafted queues.

Every policy test class runs twice: on a :class:`ScanQueue` (the
per-request scans) and, through its ``...OnChannelQueue`` subclass, on
the policy's own channel queue (``Scheduler.queue_class``) built in
``(arrival_ns, req_id)`` order (the indexed path).
"""

import functools

import pytest

from repro.dram.bank import ChannelState
from repro.dram.queue import ArrivalQueue, ChannelQueue, CoreQueue, ScanQueue
from repro.dram.request import Request
from repro.dram.schedulers import (
    FAIRNESS_POLICIES,
    available_policies,
    make_scheduler,
)
from repro.dram.schedulers.atlas import AtlasScheduler
from repro.dram.schedulers.base import READY_WINDOW_NS
from repro.dram.schedulers.fcfs import FCFSScheduler
from repro.dram.schedulers.frfcfs import FRFCFSScheduler
from repro.dram.schedulers.sms import SMSScheduler
from repro.dram.schedulers.tcm import TCMScheduler
from repro.dram.timing import DDR4_3200
from repro.errors import ConfigurationError


def req(req_id, core=0, bank=0, row=0, arrival=0.0):
    return Request(
        req_id=req_id,
        core=core,
        channel=0,
        bank=bank,
        row=row,
        arrival_ns=arrival,
    )


def indexed(queue_class, requests):
    """A ``queue_class`` queue holding ``requests``."""
    queue = queue_class()
    for r in sorted(requests, key=lambda r: (r.arrival_ns, r.req_id)):
        queue.append(r)
    return queue


@pytest.fixture()
def channel() -> ChannelState:
    return ChannelState(index=0, timing=DDR4_3200)


@pytest.fixture()
def queue_of():
    """How a test turns its requests into a channel queue."""
    return ScanQueue


class OnChannelQueue:
    """Re-runs a test class's selections on its policy's own queue."""

    @pytest.fixture()
    def queue_of(self):
        return functools.partial(indexed, self.policy.queue_class)


class TestRegistry:
    def test_all_five_policies(self):
        assert set(available_policies()) == {
            "fcfs",
            "frfcfs",
            "atlas",
            "tcm",
            "sms",
        }

    def test_fairness_subset(self):
        assert set(FAIRNESS_POLICIES) == {"atlas", "tcm", "sms"}

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("lifo", 16)

    def test_make_by_name(self):
        assert isinstance(make_scheduler("fcfs", 16), FCFSScheduler)
        assert isinstance(make_scheduler("sms", 16), SMSScheduler)

    def test_each_policy_names_its_queue(self):
        queues = {
            name: make_scheduler(name, 1).queue_class
            for name in available_policies()
        }
        assert queues == {
            "fcfs": ArrivalQueue,
            "frfcfs": ChannelQueue,
            "atlas": ChannelQueue,
            "tcm": ChannelQueue,
            "sms": CoreQueue,
        }


class TestFCFS:
    policy = FCFSScheduler

    def test_strictly_oldest(self, channel, queue_of):
        sched = FCFSScheduler(4)
        queue = queue_of(
            [req(1, arrival=5.0), req(0, arrival=1.0), req(2, arrival=9.0)]
        )
        assert sched.select(queue, channel, 10.0).req_id == 0

    def test_ignores_row_hits(self, channel, queue_of):
        channel.dispatch(req(99, bank=0, row=7), 0.0)
        sched = FCFSScheduler(4)
        hit = req(1, bank=0, row=7, arrival=5.0)
        miss = req(0, bank=0, row=3, arrival=1.0)
        assert sched.select(queue_of([hit, miss]), channel, 10.0) is miss


class TestFRFCFS:
    policy = FRFCFSScheduler

    def test_prefers_row_hits(self, channel, queue_of):
        channel.dispatch(req(99, bank=0, row=7), 0.0)
        sched = FRFCFSScheduler(4)
        hit = req(1, bank=0, row=7, arrival=5.0)
        miss = req(0, bank=0, row=3, arrival=1.0)
        assert sched.select(queue_of([hit, miss]), channel, 10.0) is hit

    def test_oldest_among_hits(self, channel, queue_of):
        channel.dispatch(req(99, bank=0, row=7), 0.0)
        sched = FRFCFSScheduler(4)
        hits = [req(2, bank=0, row=7, arrival=8.0), req(1, bank=0, row=7, arrival=5.0)]
        assert sched.select(queue_of(hits), channel, 10.0).req_id == 1

    def test_falls_back_to_oldest(self, channel, queue_of):
        sched = FRFCFSScheduler(4)
        queue = queue_of([req(1, row=4, arrival=3.0), req(0, row=9, arrival=1.0)])
        assert sched.select(queue, channel, 10.0).req_id == 0


class TestATLAS:
    policy = AtlasScheduler

    def test_prefers_least_attained_core(self, channel, queue_of):
        sched = AtlasScheduler(2)
        sched.attained = [10.0, 0.0]
        queue = queue_of([
            req(0, core=0, bank=0, row=1, arrival=1.0),
            req(1, core=1, bank=1, row=2, arrival=5.0),
        ])
        assert sched.select(queue, channel, 10.0).core == 1

    def test_over_threshold_first(self, channel, queue_of):
        sched = AtlasScheduler(2)
        sched.attained = [10.0, 0.0]
        # The starved request's bank is busy, so without the threshold
        # rule the ready, better-ranked fresh request would win.
        channel.bank(0).ready_at = 10_100.0
        starved = req(0, core=0, bank=0, row=1, arrival=0.0)
        fresh = req(1, core=1, bank=1, row=2, arrival=9_980.0)
        queue = queue_of([starved, fresh])
        assert sched.select(queue, channel, 10_000.0) is starved

    def test_ready_request_beats_better_ranked_unready(self, channel, queue_of):
        channel.dispatch(req(99, bank=0, row=7), 0.0)
        now = channel.bus_free_at
        sched = AtlasScheduler(2)
        sched.attained = [0.0, 10.0]
        conflict = req(0, core=0, bank=0, row=3, arrival=0.0)
        ready = req(1, core=1, bank=1, row=5, arrival=0.0)
        assert sched.select(queue_of([conflict, ready]), channel, now) is ready

    def test_dispatch_accumulates_service(self, channel):
        sched = AtlasScheduler(2)
        sched.on_dispatch(req(0, core=1), 10.0)
        assert sched.attained[1] > sched.attained[0]

    def test_quantum_decay(self, channel):
        sched = AtlasScheduler(2)
        sched.attained = [8.0, 0.0]
        sched._tick(25_000.0)  # two quanta
        assert sched.attained[0] == pytest.approx(8.0 * 0.875**2)


class TestTCM:
    policy = TCMScheduler

    def test_latency_cluster_first(self, channel, queue_of):
        sched = TCMScheduler(2)
        sched.latency_cluster = {1}
        sched.rank = [0, -1]
        queue = queue_of([
            req(0, core=0, bank=0, row=1, arrival=1.0),
            req(1, core=1, bank=1, row=2, arrival=5.0),
        ])
        assert sched.select(queue, channel, 10.0).core == 1

    def test_all_cores_tie_before_first_quantum(self, channel, queue_of):
        """Every core starts in the latency cluster: no core outranks
        another, so a younger row hit beats an older miss."""
        channel.dispatch(req(99, bank=0, row=7), 0.0)
        sched = TCMScheduler(2)
        miss = req(0, core=0, bank=1, row=3, arrival=1.0)
        hit = req(1, core=1, bank=0, row=7, arrival=5.0)
        queue = queue_of([miss, hit])
        assert sched.select(queue, channel, channel.bus_free_at) is hit

    def test_reclassification_uses_traffic(self, channel):
        sched = TCMScheduler(2)
        for _ in range(100):
            sched.on_dispatch(req(0, core=0), 10.0)
        sched._reclassify()
        # Core 1 used nothing: it belongs to the latency cluster.
        assert 1 in sched.latency_cluster
        assert 0 not in sched.latency_cluster

    def test_bandwidth_cluster_ranked(self, channel, queue_of):
        sched = TCMScheduler(3)
        sched.latency_cluster = set()
        sched.rank = [2, 0, 1]
        queue = queue_of([
            req(0, core=0, bank=0, row=1, arrival=1.0),
            req(1, core=1, bank=1, row=2, arrival=5.0),
            req(2, core=2, bank=2, row=3, arrival=2.0),
        ])
        assert sched.select(queue, channel, 10.0).core == 1


class TestSMS:
    policy = SMSScheduler

    def test_sticky_batch(self, channel, queue_of):
        sched = SMSScheduler(2, seed=1)
        queue = queue_of([
            req(0, core=0, bank=0, row=1, arrival=0.0),
            req(1, core=0, bank=0, row=1, arrival=1.0),
            req(2, core=1, bank=1, row=2, arrival=0.5),
        ])
        first = sched.select(queue, channel, 10.0)
        queue.remove(first)
        second = sched.select(queue, channel, 10.0)
        # Whoever was chosen first, the same core's batch continues if
        # it still has same-row requests queued.
        if first.core == 0:
            assert second.core == 0 and second.row == 1

    def test_shortest_queue_first(self, channel, queue_of):
        sched = SMSScheduler(2)
        sched._rng.random = lambda: 0.0  # always the SJF stage
        heavy = [req(i, core=0, bank=0, row=1, arrival=i) for i in range(3)]
        light = req(3, core=1, bank=1, row=2, arrival=5.0)
        assert sched.select(queue_of(heavy + [light]), channel, 10.0) is light

    def test_deterministic_given_seed(self, channel, queue_of):
        queue = [
            req(0, core=0, bank=0, row=1, arrival=0.0),
            req(1, core=1, bank=1, row=2, arrival=0.5),
        ]
        a = SMSScheduler(2, seed=42).select(queue_of(queue), channel, 10.0)
        b = SMSScheduler(2, seed=42).select(queue_of(queue), channel, 10.0)
        assert a.req_id == b.req_id


class TestFCFSOnChannelQueue(OnChannelQueue, TestFCFS):
    pass


class TestFRFCFSOnChannelQueue(OnChannelQueue, TestFRFCFS):
    pass


class TestATLASOnChannelQueue(OnChannelQueue, TestATLAS):
    pass


class TestTCMOnChannelQueue(OnChannelQueue, TestTCM):
    pass


class TestSMSOnChannelQueue(OnChannelQueue, TestSMS):
    pass


class TestReadySubset:
    def test_prefers_ready_requests(self, channel):
        channel.dispatch(req(99, bank=0, row=7), 0.0)
        now = channel.bus_free_at
        blocked = req(0, bank=0, row=3, arrival=0.0)  # conflict: slow
        ready = req(1, bank=1, row=5, arrival=0.0)  # idle bank: fast
        subset = ScanQueue([blocked, ready]).ready(
            channel, now, READY_WINDOW_NS
        )
        assert subset == [ready]

    def test_falls_back_to_all_when_none_ready(self, channel):
        channel.dispatch(req(99, bank=0, row=7), 0.0)
        now = channel.bus_free_at
        blocked = req(0, bank=0, row=3, arrival=0.0)
        subset = ScanQueue([blocked]).ready(channel, now, READY_WINDOW_NS)
        assert subset == [blocked]
