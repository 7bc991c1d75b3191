"""Trace-driven traffic for the DRAM simulator.

The paper's CMP study front-ends Ramulator with Pin-captured traces. This
module provides the equivalent: replay of (time, address, is_write)
traces through the controller, plus synthetic trace generators for the
canonical access patterns — streaming, strided, and random (the
poor-row-locality pattern of graph workloads like BFS).

Traces integrate with :class:`repro.dram.system.CMPSystem` through
:func:`trace_core_config`: the trace's addresses replace the default
sequential stream while the demand pacing and MSHR behaviour stay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TraceRecord:
    """One memory access of a trace."""

    address: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ConfigurationError("trace addresses must be >= 0")


@dataclass(frozen=True)
class MemoryTrace:
    """An ordered sequence of accesses with a nominal issue rate."""

    name: str
    records: Tuple[TraceRecord, ...]
    demand_gbps: float

    def __post_init__(self) -> None:
        if not self.records:
            raise ConfigurationError("trace must contain accesses")
        if self.demand_gbps <= 0:
            raise ConfigurationError("trace demand must be positive")

    def __len__(self) -> int:
        return len(self.records)

    def addresses(self) -> Tuple[int, ...]:
        return tuple(r.address for r in self.records)

    @property
    def write_fraction(self) -> float:
        writes = sum(r.is_write for r in self.records)
        return writes / len(self.records)


# ----------------------------------------------------------------------
# Synthetic trace generators
# ----------------------------------------------------------------------
def streaming_trace(
    name: str,
    n_accesses: int,
    demand_gbps: float,
    base: int = 0,
    write_fraction: float = 0.0,
) -> MemoryTrace:
    """Sequential cacheline sweep: the roofline calibrators' pattern."""
    _validate(n_accesses, write_fraction)
    records = [
        TraceRecord(
            address=base + i * 64,
            is_write=_write_at(i, write_fraction),
        )
        for i in range(n_accesses)
    ]
    return MemoryTrace(name=name, records=tuple(records), demand_gbps=demand_gbps)


def strided_trace(
    name: str,
    n_accesses: int,
    demand_gbps: float,
    stride_lines: int,
    base: int = 0,
) -> MemoryTrace:
    """Fixed-stride sweep (e.g. column-major matrix walks).

    Large strides skip within rows and thrash row buffers sooner than
    unit-stride streams.
    """
    _validate(n_accesses, 0.0)
    if stride_lines <= 0:
        raise ConfigurationError("stride_lines must be positive")
    records = [
        TraceRecord(address=base + i * stride_lines * 64)
        for i in range(n_accesses)
    ]
    return MemoryTrace(name=name, records=tuple(records), demand_gbps=demand_gbps)


def random_trace(
    name: str,
    n_accesses: int,
    demand_gbps: float,
    footprint_bytes: int = 1 << 28,
    base: int = 0,
    seed: int = 0,
) -> MemoryTrace:
    """Uniform-random cachelines over a footprint: BFS-like locality."""
    _validate(n_accesses, 0.0)
    if footprint_bytes < 64:
        raise ConfigurationError("footprint must hold at least one line")
    rng = random.Random(seed)
    lines = footprint_bytes // 64
    records = [
        TraceRecord(address=base + rng.randrange(lines) * 64)
        for _ in range(n_accesses)
    ]
    return MemoryTrace(name=name, records=tuple(records), demand_gbps=demand_gbps)


def _validate(n_accesses: int, write_fraction: float) -> None:
    if n_accesses <= 0:
        raise ConfigurationError("n_accesses must be positive")
    if not 0 <= write_fraction <= 0.5:
        raise ConfigurationError("write_fraction must be in [0, 0.5]")


def _write_at(index: int, fraction: float) -> bool:
    if fraction <= 0:
        return False
    period = max(int(round(1.0 / fraction)), 2)
    return index % period == period - 1


# ----------------------------------------------------------------------
# Integration with the CMP system
# ----------------------------------------------------------------------
def trace_core_config(trace: MemoryTrace, mshr: int = 16, burst_lines: int = 16):
    """A :class:`~repro.dram.cores.CoreConfig` replaying this trace.

    The returned config carries the trace itself: the core issues its
    records in order, each record's address and write flag in place of
    the sequential stream (:meth:`CoreState.next_access`), at the
    trace's demand rate. Plug it into :meth:`CMPSystem.run` like any
    other core.
    """
    from repro.dram.cores import CoreConfig

    return CoreConfig(
        demand_gbps=trace.demand_gbps,
        total_requests=len(trace),
        mshr=mshr,
        burst_lines=burst_lines,
        write_fraction=0.0,  # writes are carried per-record by the trace
        address_base=None,
        trace=trace,
    )
