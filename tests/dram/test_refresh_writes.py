"""Refresh and write-traffic features of the DRAM simulator."""

import pytest

from repro.dram.bank import ChannelState
from repro.dram.cores import CoreConfig
from repro.dram.system import CMPSystem
from repro.dram.timing import DramTiming
from repro.dram.trace import MemoryTrace, TraceRecord, trace_core_config
from repro.errors import ConfigurationError

from tests.dram.test_invariants import recording

REQ = 600


class TestRefreshMechanics:
    def test_refresh_fires_after_interval(self):
        timing = DramTiming()
        channel = ChannelState(index=0, timing=timing)
        assert not channel.refresh_if_due(timing.t_refi_ns - 1.0)
        assert channel.refresh_if_due(timing.t_refi_ns + 1.0)

    def test_refresh_closes_rows(self):
        from repro.dram.request import Request

        timing = DramTiming()
        channel = ChannelState(index=0, timing=timing)
        channel.dispatch(
            Request(0, 0, 0, 0, row=5, arrival_ns=0.0), 0.0
        )
        assert channel.bank(0).open_row == 5
        channel.refresh_if_due(timing.t_refi_ns + 1.0)
        assert channel.bank(0).open_row is None

    def test_refresh_occupies_bus(self):
        timing = DramTiming()
        channel = ChannelState(index=0, timing=timing)
        now = timing.t_refi_ns + 1.0
        channel.refresh_if_due(now)
        assert channel.bus_free_at >= now + timing.t_rfc_ns

    def test_refresh_can_be_disabled(self):
        timing = DramTiming(refresh_enabled=False)
        channel = ChannelState(index=0, timing=timing)
        assert not channel.refresh_if_due(1e9)

    def test_bad_refresh_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            DramTiming(t_rfc_ns=8000.0)  # longer than t_refi

    def test_untouched_bank_waits_out_refresh(self):
        """Regression: a bank first touched during a refresh used to
        activate inside tRFC, because only banks that already existed
        were refreshed. A 1 GB/s stream keeps to bank 0 row 0 except for
        access #122, the first to bank 5; the refresh due at 7,800 ns
        runs from 7,808 to 8,158 ns."""
        records = tuple(
            TraceRecord(address=(5 << 14) if i == 122 else (i % 64) << 8)
            for i in range(200)
        )
        trace = MemoryTrace("bank5", records, demand_gbps=1.0)
        with recording() as record:
            result = CMPSystem(policy="fcfs").run(
                [trace_core_config(trace, burst_lines=1)]
            )
        assert record.refreshes[0] == [(7808.0, 8158.0)]
        bank5 = record.accesses[122]
        assert bank5.outcome == "miss"
        # Activation starts once the refresh frees the bank, not at 7,808.
        assert bank5.activation == (8158.0, 8171.75)
        assert bank5.start_ns == 8171.75
        assert result.mean_latency_ns == 22.61875  # 22.4875 when inside

    def test_refresh_costs_bandwidth(self):
        """A saturating run spanning several tREFI intervals loses a few
        percent of bandwidth to refresh stalls."""
        on = CMPSystem(timing=DramTiming(refresh_enabled=True))
        off = CMPSystem(timing=DramTiming(refresh_enabled=False))
        r_on = on.run(on.group_configs(120.0, 8, 3000))
        r_off = off.run(off.group_configs(120.0, 8, 3000))
        assert r_on.effective_bw_gbps < r_off.effective_bw_gbps
        # ... but not by much (t_rfc / t_refi ~ 4.5%).
        assert r_on.effective_bw_gbps > r_off.effective_bw_gbps * 0.85


class TestWriteTraffic:
    def test_write_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(10.0, 100, write_fraction=0.9)

    def test_write_indices_at_fraction(self):
        cfg = CoreConfig(10.0, 100, write_fraction=0.25)
        writes = sum(cfg.is_write_index(i) for i in range(100))
        assert writes == 25

    def test_zero_fraction_means_no_writes(self):
        cfg = CoreConfig(10.0, 100)
        assert not any(cfg.is_write_index(i) for i in range(100))

    def test_posted_writes_complete(self):
        system = CMPSystem()
        cfg = CoreConfig(
            demand_gbps=8.0, total_requests=REQ, write_fraction=0.25
        )
        result = system.run([cfg])
        assert result.cores[0].completed == REQ
        assert result.cores[0].finish_ns is not None

    def test_writes_consume_bandwidth(self):
        """Total effective bandwidth includes write bursts."""
        system = CMPSystem()
        cfg = CoreConfig(
            demand_gbps=20.0, total_requests=REQ, write_fraction=0.25
        )
        result = system.run([cfg])
        assert result.effective_bw_gbps == pytest.approx(20.0, rel=0.15)

    def test_writes_do_not_block_the_core(self):
        """A light writer finishes at its demanded pace (writes posted)."""
        system = CMPSystem()
        cfg = CoreConfig(
            demand_gbps=6.4, total_requests=REQ, write_fraction=0.5
        )
        result = system.run([cfg])
        expected = REQ * 10.0  # 64B / 6.4 GB/s = 10 ns per line
        assert result.elapsed_ns == pytest.approx(expected, rel=0.1)
