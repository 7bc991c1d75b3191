"""Core front-end traffic generators."""

import pytest

from repro.dram.cores import CoreConfig, CoreState, staggered_base
from repro.errors import ConfigurationError


class TestCoreConfig:
    def test_interval_from_demand(self):
        cfg = CoreConfig(demand_gbps=6.4, total_requests=10)
        assert cfg.interval_ns == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("demand_gbps", 0.0),
            ("total_requests", 0),
            ("mshr", 0),
            ("burst_lines", 0),
        ],
    )
    def test_invalid_rejected(self, field, value):
        base = dict(demand_gbps=5.0, total_requests=100)
        base[field] = value
        with pytest.raises(ConfigurationError):
            CoreConfig(**base)

    def test_negative_address_base_rejected(self):
        """Rejected when built, not at the run's first access."""
        with pytest.raises(ConfigurationError):
            CoreConfig(5.0, 100, address_base=-64)
        assert CoreConfig(5.0, 100, address_base=0).address_base == 0

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.25, 0.3, 0.5])
    def test_write_period_drives_is_write_index(self, fraction):
        cfg = CoreConfig(5.0, 100, write_fraction=fraction)
        period = cfg.write_period
        writes = [i for i in range(100) if cfg.is_write_index(i)]
        if fraction == 0:
            assert period == 0 and writes == []
        else:
            assert writes == list(range(period - 1, 100, period))


class TestStaggeredBase:
    def test_disjoint_windows(self):
        assert staggered_base(0) >> 32 == 0
        assert staggered_base(3) >> 32 == 3

    def test_distinct_starting_banks(self):
        banks = {(staggered_base(i) >> 14) & 7 for i in range(8)}
        assert len(banks) == 8

    def test_wraps_after_bank_count(self):
        assert (staggered_base(8) >> 14) & 7 == (staggered_base(0) >> 14) & 7


class TestCoreState:
    def test_initial_address_staggered(self):
        state = CoreState(index=2, config=CoreConfig(5.0, 100))
        assert state.next_address == staggered_base(2)

    def test_explicit_base_respected(self):
        cfg = CoreConfig(5.0, 100, address_base=0x1000)
        state = CoreState(index=0, config=cfg)
        assert state.next_address == 0x1000

    def test_take_address_sequential(self):
        state = CoreState(index=0, config=CoreConfig(5.0, 100))
        a = state.take_address()
        b = state.take_address()
        assert b == a + 64

    def test_done_flags(self):
        state = CoreState(index=0, config=CoreConfig(5.0, 2))
        assert not state.done_issuing
        state.issued = 2
        assert state.done_issuing
        assert not state.finished
        state.completed = 2
        assert state.finished

    def test_standalone_lower_bound(self):
        state = CoreState(index=0, config=CoreConfig(6.4, 10))
        assert state.standalone_lower_bound_ns() == pytest.approx(100.0)
