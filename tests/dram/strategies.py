"""Shared DRAM simulation inputs for the invariant, golden and
differential tests.

Trace cores replay accesses to one *shared* footprint of 1024 cachelines
(64 KiB of data). Footprint line ``k`` sits at byte address
``k * 64 * FOOTPRINT_SPACING``: spacing the lines 37 lines apart spreads
the footprint over every channel, every bank and about twenty rows, so
cores on it collide on the same (bank, row) and also evict each other's
rows. A contiguous 64 KiB window would cover a single row index.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, NamedTuple, Optional, Set

from hypothesis import strategies as st

from repro.dram.cores import CoreConfig, staggered_base
from repro.dram.system import CMPSystem, SimResult
from repro.dram.timing import DDR4_3200, DramTiming
from repro.dram.trace import MemoryTrace, TraceRecord, trace_core_config

POLICIES = ("fcfs", "frfcfs", "atlas", "tcm", "sms")
TRACE_KINDS = ("random", "strided", "streaming")

FOOTPRINT_LINES = 1024
FOOTPRINT_SPACING = 37


def footprint_trace(
    kind: str, index: int, n_accesses: int, demand_gbps: float, seed: int
) -> MemoryTrace:
    """Core ``index``'s ``kind`` walk over the shared footprint.

    Every seventh access of a random walk is a write, so trace cores
    also post writes.
    """
    if kind == "random":
        rng = random.Random(seed * 1009 + index)
        lines = [rng.randrange(FOOTPRINT_LINES) for _ in range(n_accesses)]
    elif kind == "strided":
        stride = 3 + 2 * index
        lines = [
            (index * 61 + i * stride) % FOOTPRINT_LINES
            for i in range(n_accesses)
        ]
    else:
        lines = [(index * 128 + i) % FOOTPRINT_LINES for i in range(n_accesses)]
    records = tuple(
        TraceRecord(
            address=line * 64 * FOOTPRINT_SPACING,
            is_write=kind == "random" and i % 7 == 6,
        )
        for i, line in enumerate(lines)
    )
    return MemoryTrace(name=f"{kind}{index}", records=records,
                       demand_gbps=demand_gbps)


def mixed_cores(n: int = 6, requests: int = 120) -> List[CoreConfig]:
    """Synthetic streaming cores of rising demand; odd cores post writes."""
    return [
        CoreConfig(
            demand_gbps=2.0 + 3.0 * i,
            total_requests=requests,
            mshr=8,
            burst_lines=8,
            write_fraction=0.25 if i % 2 else 0.0,
            address_base=staggered_base(i, DDR4_3200.banks_per_channel),
        )
        for i in range(n)
    ]


def trace_cores(seed: int, requests: int = 150) -> List[CoreConfig]:
    """Two random, two strided and two streaming cores on the footprint."""
    return [
        trace_core_config(
            footprint_trace(
                TRACE_KINDS[i % 3], i, requests, 6.0 + 4.0 * i, seed
            ),
            mshr=8 + i,
            burst_lines=1 + 3 * (i % 3),
        )
        for i in range(6)
    ]


def fig5_slice_cores(requests: int = 40) -> List[CoreConfig]:
    """Fig 5's layout at 70 GB/s of pressure on a 90 GB/s victim group:
    cores 0-7 are the background group, 8-15 the victims."""
    system = CMPSystem()
    return system.group_configs(70.0, 8, 60, index_offset=0) + (
        system.group_configs(90.0, 8, requests, index_offset=8)
    )


FIG5_VICTIMS = frozenset(range(8, 16))


class SimInput(NamedTuple):
    """Everything one ``CMPSystem.run`` needs."""

    policy: str
    seed: int
    timing: DramTiming
    cores: List[CoreConfig]
    stop_cores: Optional[Set[int]]

    def run(self, **system_kwargs) -> SimResult:
        system = CMPSystem(
            timing=self.timing, policy=self.policy, seed=self.seed,
            **system_kwargs,
        )
        return system.run(self.cores, stop_cores=self.stop_cores)


@st.composite
def sim_inputs(draw, policy: str) -> SimInput:
    """A random small ``policy`` simulation: 1-8 cores mixing synthetic
    streams and shared-footprint trace cores, either request-buffer
    size, refresh off, at its default interval or every 900 ns."""
    seed = draw(st.integers(0, 9))
    refresh = draw(st.sampled_from(("off", "default", "fast")))
    timing = dataclasses.replace(
        DDR4_3200,
        request_buffer=draw(st.sampled_from((8, 256))),
        refresh_enabled=refresh != "off",
        **({"t_refi_ns": 900.0, "t_rfc_ns": 300.0} if refresh == "fast" else {}),
    )
    cores = []
    for index in range(draw(st.integers(1, 8))):
        demand = draw(st.floats(1.0, 60.0))
        requests = draw(st.integers(8, 60))
        mshr = draw(st.integers(1, 16))
        burst_lines = draw(st.integers(1, 16))
        kind = draw(st.sampled_from(("synthetic",) + TRACE_KINDS))
        if kind == "synthetic":
            cores.append(
                CoreConfig(
                    demand_gbps=demand,
                    total_requests=requests,
                    mshr=mshr,
                    burst_lines=burst_lines,
                    write_fraction=draw(st.sampled_from((0.0, 0.1, 0.25, 0.5))),
                    address_base=staggered_base(index, timing.banks_per_channel),
                )
            )
        else:
            trace = footprint_trace(kind, index, requests, demand, seed)
            cores.append(trace_core_config(trace, mshr, burst_lines))
    stop_cores = draw(st.sampled_from((None, {0})))
    return SimInput(policy, seed, timing, cores, stop_cores)
