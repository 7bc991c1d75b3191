"""Bank and channel state tracking."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dram.request import Request
from repro.dram.timing import DramTiming


class BankState:
    """Open-row and readiness state of one bank."""

    __slots__ = ("open_row", "ready_at")

    def __init__(self, open_row: Optional[int] = None, ready_at: float = 0.0):
        self.open_row = open_row
        self.ready_at = ready_at

    def prep_time(self, row: int, timing: DramTiming) -> Tuple[float, bool]:
        """(preparation latency in ns, row hit?) for accessing ``row``."""
        if self.open_row == row:
            return 0.0, True
        if self.open_row is None:
            return timing.t_rcd_ns, False
        return timing.t_rp_ns + timing.t_rcd_ns, False


class ChannelState:
    """Data-bus and bank state of one channel.

    Every bank exists from construction, so an all-bank refresh closes
    and delays all of them, including banks no request has touched yet.
    ``misses`` counts dispatches that found their bank closed; a row hit
    or a conflict (another row open) is not a miss.
    """

    __slots__ = (
        "index", "timing", "bus_free_at", "next_refresh_ns", "banks", "misses",
    )

    def __init__(self, index: int, timing: DramTiming):
        self.index = index
        self.timing = timing
        self.bus_free_at = 0.0
        # Never due when refresh is off, so callers may test this field
        # alone before calling refresh_if_due.
        self.next_refresh_ns = (
            timing.t_refi_ns if timing.refresh_enabled else float("inf")
        )
        self.banks: List[BankState] = [
            BankState() for _ in range(timing.banks_per_channel)
        ]
        self.misses = 0

    def refresh_if_due(self, now: float) -> bool:
        """Perform an all-bank refresh when the interval elapsed.

        Returns True if a refresh was issued: the bus stalls for
        ``t_rfc`` and every row buffer closes.
        """
        if not self.timing.refresh_enabled or now < self.next_refresh_ns:
            return False
        start = max(now, self.bus_free_at)
        self.bus_free_at = start + self.timing.t_rfc_ns
        for bank in self.banks:
            bank.open_row = None
            bank.ready_at = max(bank.ready_at, self.bus_free_at)
        while self.next_refresh_ns <= now:
            self.next_refresh_ns += self.timing.t_refi_ns
        return True

    def bank(self, bank_index: int) -> BankState:
        return self.banks[bank_index]

    def earliest_data_start(self, request: Request, now: float) -> float:
        """When this request's data burst could start (no side effects).

        Bank preparation (precharge/activate) proceeds in the background
        as soon as the bank is free, so a miss in an idle bank can often
        stream its data with no bus gap — bank-level parallelism.
        """
        bank = self.banks[request.bank]
        prep, _ = bank.prep_time(request.row, self.timing)
        return max(now, max(bank.ready_at, request.arrival_ns) + prep)

    def dispatch(self, request: Request, now: float) -> float:
        """Issue the request; returns its completion time.

        Updates bank open-row state and bus occupancy. The burst is
        scheduled at ``earliest_data_start``; the core sees the data one
        CAS latency after the burst completes.
        """
        bank = self.banks[request.bank]
        timing = self.timing
        row = request.row
        # The preparation rule of BankState.prep_time, inlined.
        open_row = bank.open_row
        if open_row == row:
            hit, prep = True, 0.0
        elif open_row is None:
            hit, prep = False, timing.t_rcd_ns
            self.misses += 1
        else:
            hit, prep = False, timing.t_rp_ns + timing.t_rcd_ns
        # earliest_data_start with comparisons in place of max().
        arrival = request.arrival_ns
        ready_at = bank.ready_at
        prepared = (ready_at if ready_at > arrival else arrival) + prep
        burst_end = (prepared if prepared > now else now) + timing.t_burst_ns
        self.bus_free_at = burst_end
        bank.open_row = row
        bank.ready_at = burst_end
        request.row_hit = hit
        completion = request.completion_ns = burst_end + timing.t_cas_ns
        return completion

    def is_row_hit(self, request: Request) -> bool:
        """Whether the request would hit the currently open row."""
        return self.banks[request.bank].open_row == request.row
