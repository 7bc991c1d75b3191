"""Timing and conservation invariants of the DRAM engine.

An oracle independent of the engine's own bookkeeping: test-local
wrappers on ``ChannelState.dispatch`` and ``ChannelState.refresh_if_due``
record every data burst, row activation and refresh window, and the
assertions
check them against the timing model rather than against a recorded
result. A reproducible simulator is not thereby a right one.

The event loop serves a channel when ``now + 1e-12 >= bus_free_at``, so a
burst may start up to 1e-12 ns before the previous one ends; that slack
is the engine's own and is the tolerance used for every overlap below.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dram.bank import ChannelState

from tests.dram.strategies import POLICIES, sim_inputs

SLACK_NS = 1e-12


class Access(NamedTuple):
    channel: int
    outcome: str  # "hit", "miss" or "conflict"
    arrival_ns: float
    activation: Tuple[float, float]  # tRCD window; empty on a hit
    start_ns: float  # data burst start
    end_ns: float  # data burst end
    completion_ns: float


class Recording:
    def __init__(self) -> None:
        self.accesses: List[Access] = []
        self.refreshes: Dict[int, List[Tuple[float, float]]] = defaultdict(list)


@contextmanager
def recording():
    """Record the bursts, activations and refresh windows of every run
    inside the block."""
    record = Recording()
    dispatch = ChannelState.dispatch
    refresh_if_due = ChannelState.refresh_if_due

    def recorded_dispatch(channel, request, now):
        timing = channel.timing
        bank = channel.bank(request.bank)
        if bank.open_row == request.row:
            outcome, prep = "hit", 0.0
        elif bank.open_row is None:
            outcome, prep = "miss", timing.t_rcd_ns
        else:
            outcome, prep = "conflict", timing.t_rp_ns + timing.t_rcd_ns
        prep_start = max(bank.ready_at, request.arrival_ns)
        prepared = prep_start + prep
        # A conflict precharges for tRP before it activates.
        activation = (
            prep_start + (timing.t_rp_ns if outcome == "conflict" else 0.0),
            prepared,
        )
        start = max(now, prepared)
        completion = dispatch(channel, request, now)
        record.accesses.append(
            Access(channel.index, outcome, request.arrival_ns, activation,
                   start, channel.bus_free_at, completion)
        )
        return completion

    def recorded_refresh(channel, now):
        bus_free_before = channel.bus_free_at
        fired = refresh_if_due(channel, now)
        if fired:
            record.refreshes[channel.index].append(
                (max(now, bus_free_before), channel.bus_free_at)
            )
        return fired

    with mock.patch.object(ChannelState, "dispatch", recorded_dispatch), \
            mock.patch.object(ChannelState, "refresh_if_due", recorded_refresh):
        yield record


def overlap(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return min(a[1], b[1]) - max(a[0], b[0])


def check_invariants(sim, result, record: Recording) -> None:
    timing = sim.timing
    floors = {
        "hit": 0.0,
        "miss": timing.t_rcd_ns,
        "conflict": timing.t_rp_ns + timing.t_rcd_ns,
    }
    # Conservation: nothing completes that was not issued, and a core
    # that finished completed everything it issued.
    for core, config in zip(result.cores, sim.cores):
        assert core.completed <= core.issued <= config.total_requests
        if core.finish_ns is not None:
            assert core.completed == core.issued == config.total_requests
    completed = sum(c.completed for c in result.cores)
    issued = sum(c.issued for c in result.cores)
    assert completed <= len(record.accesses) <= issued

    bursts: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    activations: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for access in record.accesses:
        # A burst occupies the bus for exactly one tBURST.
        assert access.end_ns == access.start_ns + timing.t_burst_ns
        # Latency floor: CAS + burst + the outcome's preparation.
        latency = access.completion_ns - access.arrival_ns
        floor = timing.t_cas_ns + timing.t_burst_ns + floors[access.outcome]
        assert latency >= floor - 1e-9, (access, floor)
        bursts[access.channel].append((access.start_ns, access.end_ns))
        if access.outcome != "hit":
            activations[access.channel].append(access.activation)

    for channel, windows in bursts.items():
        windows.sort()
        for before, after in zip(windows, windows[1:]):
            assert overlap(before, after) <= SLACK_NS, (channel, before, after)
        for refresh in record.refreshes[channel]:
            for burst in windows:
                assert overlap(burst, refresh) <= SLACK_NS, (burst, refresh)
            # An all-bank refresh leaves no bank free to activate a row.
            for activation in activations[channel]:
                assert overlap(activation, refresh) <= SLACK_NS, (
                    activation, refresh,
                )

    assert result.effective_bw_gbps <= timing.peak_bw_gbps * (1 + 1e-12)
    assert (
        sum(c.achieved_gbps for c in result.cores)
        <= timing.peak_bw_gbps * (1 + 1e-12)
    )


@pytest.mark.parametrize("policy", POLICIES)
@settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_engine_invariants(policy, data):
    sim = data.draw(sim_inputs(policy))
    with recording() as record:
        result = sim.run()
    assert record.accesses
    check_invariants(sim, result, record)
