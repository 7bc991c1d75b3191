"""Core front-end models driving the memory controller.

Each core is a fixed-rate streaming traffic generator with a bounded
number of outstanding misses (MSHRs): it tries to issue one 64-byte read
every ``64 / demand_gbps`` nanoseconds, stalling when its MSHRs are full
or the controller's request buffer has no room. Cores walk disjoint
sequential address ranges, the pattern of the roofline-toolkit kernels
the paper drives its CMP study with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


def staggered_base(index: int, banks: int = 8, bank_shift: int = 14) -> int:
    """Disjoint address window for a core, staggered across banks.

    Each core gets its own 4 GiB window (disjoint rows) and starts in a
    different bank; same-rate streams then stay in distinct banks, while
    different-rate streams drift and periodically collide — the realistic
    source of row-buffer interference.
    """
    return (index << 32) | ((index % banks) << bank_shift)


@dataclass(frozen=True)
class CoreConfig:
    """Static configuration of one traffic-generating core.

    ``burst_lines`` is the number of cachelines issued back-to-back per
    generation event (loop-unrolled streaming issue). Burstiness is what
    gives even chronological (FCFS) scheduling some row locality.
    """

    demand_gbps: float
    total_requests: int
    mshr: int = 16
    burst_lines: int = 16
    write_fraction: float = 0.0
    address_base: Optional[int] = None
    trace: Optional[object] = None  # repro.dram.trace.MemoryTrace

    def __post_init__(self) -> None:
        if self.demand_gbps <= 0:
            raise ConfigurationError("demand_gbps must be positive")
        if self.total_requests <= 0:
            raise ConfigurationError("total_requests must be positive")
        if self.mshr <= 0:
            raise ConfigurationError("mshr must be positive")
        if self.burst_lines <= 0:
            raise ConfigurationError("burst_lines must be positive")
        if not 0 <= self.write_fraction <= 0.5:
            raise ConfigurationError("write_fraction must be in [0, 0.5]")
        if self.address_base is not None and self.address_base < 0:
            raise ConfigurationError(
                f"address_base must be >= 0, got {self.address_base}"
            )
        if self.trace is not None and len(self.trace) < self.total_requests:
            raise ConfigurationError(
                "trace shorter than total_requests "
                f"({len(self.trace)} < {self.total_requests})"
            )

    @property
    def write_period(self) -> int:
        """Issue indices per write: every ``period``-th access is one.

        0 when the core never writes.
        """
        if self.write_fraction <= 0:
            return 0
        return max(int(round(1.0 / self.write_fraction)), 2)

    def is_write_index(self, issue_index: int) -> bool:
        """Deterministic write interleaving at the configured fraction.

        Writes are *posted*: they occupy DRAM bandwidth but do not block
        the core (no MSHR slot, no completion wait).
        """
        period = self.write_period
        return period > 0 and issue_index % period == period - 1

    @property
    def interval_ns(self) -> float:
        """Nanoseconds between issue attempts at the demanded rate."""
        return 64.0 / self.demand_gbps


@dataclass
class CoreState:
    """Mutable execution state of one core during simulation."""

    index: int
    config: CoreConfig
    next_address: int = 0
    next_gen_ns: float = 0.0
    issued: int = 0
    completed: int = 0
    inflight: int = 0
    blocked: bool = False
    gen_pending: bool = False
    buffer_waiting: bool = False
    finish_ns: Optional[float] = None

    def __post_init__(self) -> None:
        base = self.config.address_base
        if base is None:
            base = staggered_base(self.index)
        self.next_address = base

    @property
    def done_issuing(self) -> bool:
        return self.issued >= self.config.total_requests

    @property
    def finished(self) -> bool:
        return self.completed >= self.config.total_requests

    def take_address(self) -> int:
        """Next sequential cacheline address."""
        address = self.next_address
        self.next_address += 64
        return address

    def next_access(self) -> "tuple[int, bool]":
        """(address, is_write) of the next access.

        Trace-driven cores replay their trace records; synthetic cores
        stream sequentially with the configured write interleaving.
        """
        if self.config.trace is not None:
            record = self.config.trace.records[self.issued]
            return record.address, record.is_write
        return self.take_address(), self.config.is_write_index(self.issued)

    def standalone_lower_bound_ns(self) -> float:
        """Time to issue all requests at the demanded rate, unconstrained."""
        return self.config.total_requests * self.config.interval_ns
