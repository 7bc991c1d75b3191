"""Latency distribution statistics."""

import pytest

from repro.dram.metrics import DramMetrics
from repro.dram.system import CMPSystem


class TestPercentiles:
    def test_empty_metrics(self):
        assert DramMetrics().latency_percentile(99.0) == 0.0

    def test_known_distribution(self):
        m = DramMetrics(latencies_ns=[10.0, 20.0, 30.0, 40.0, 50.0])
        assert m.latency_percentile(0.0) == 10.0
        assert m.latency_percentile(50.0) == 30.0
        assert m.latency_percentile(100.0) == 50.0
        assert m.latency_percentiles((0.0, 50.0, 100.0)) == (10.0, 30.0, 50.0)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            DramMetrics().latency_percentile(150.0)
        with pytest.raises(ValueError):
            DramMetrics().latency_percentiles((50.0, -1.0))

    @pytest.mark.parametrize(
        "latencies", [[], [40.0, 10.0, 50.0, 30.0, 20.0]]
    )
    def test_one_sort_agrees_with_single_percentiles(self, latencies):
        m = DramMetrics(latencies_ns=latencies)
        qs = (0.0, 10.0, 50.0, 62.5, 99.0, 100.0)
        assert m.latency_percentiles(qs) == tuple(
            m.latency_percentile(q) for q in qs
        )

    def test_simulation_reports_percentiles(self):
        system = CMPSystem()
        result = system.run(system.group_configs(60.0, 4, 400))
        assert result.p50_latency_ns > 0
        assert result.p99_latency_ns >= result.p50_latency_ns
        assert result.p50_latency_ns <= result.mean_latency_ns * 2

    def test_tail_grows_under_contention(self):
        """Queueing under saturation fattens the latency tail."""
        system = CMPSystem()
        light = system.run(system.group_configs(20.0, 4, 400))
        heavy = system.run(system.group_configs(120.0, 8, 400))
        assert heavy.p99_latency_ns > light.p99_latency_ns
