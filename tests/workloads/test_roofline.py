"""Roofline calibrators and the bandwidth-inversion solver."""

import pytest

from repro.errors import WorkloadError
from repro.soc.configs import soc_by_name
from repro.soc.engine import CoRunEngine
from repro.workloads.roofline import (
    calibrator,
    calibrator_for_bandwidth,
    calibrator_sweep,
    max_demand_kernel,
    pressure_levels,
)


class TestCalibrator:
    def test_intensity_stored(self):
        k = calibrator(12.5)
        assert k.op_intensity == pytest.approx(12.5)

    def test_suite_tag(self):
        k = calibrator(1.0)
        assert k.suite == "roofline"
        assert "calibrator" in k.tags

    def test_sweep_order(self):
        kernels = calibrator_sweep([1.0, 2.0, 4.0])
        assert [k.op_intensity for k in kernels] == [1.0, 2.0, 4.0]

    def test_empty_sweep_rejected(self):
        with pytest.raises(WorkloadError):
            calibrator_sweep([])

    def test_max_demand_kernel_is_pure_streaming(self):
        assert max_demand_kernel().op_intensity == 0.0


class TestPressureLevels:
    def test_paper_sweep(self):
        levels = pressure_levels(100.0, steps=10)
        assert levels[0] == pytest.approx(10.0)
        assert levels[-1] == pytest.approx(100.0)
        assert len(levels) == 10

    def test_zero_steps_rejected(self):
        with pytest.raises(WorkloadError):
            pressure_levels(100.0, steps=0)


class TestBandwidthInversion:
    @pytest.mark.parametrize("target", [15.0, 40.0, 70.0, 100.0])
    def test_hits_target_gpu(self, xavier_engine, target):
        kernel, demand = calibrator_for_bandwidth(
            xavier_engine, "gpu", target
        )
        assert demand == pytest.approx(target, rel=0.05)
        # And the kernel really profiles at that demand.
        assert xavier_engine.standalone_demand(
            kernel, "gpu"
        ) == pytest.approx(demand, rel=0.01)

    @pytest.mark.parametrize("target", [10.0, 25.0])
    def test_hits_target_dla(self, xavier_engine, target):
        _, demand = calibrator_for_bandwidth(xavier_engine, "dla", target)
        assert demand == pytest.approx(target, rel=0.05)

    def test_unreachable_target_returns_max(self, xavier_engine):
        kernel, demand = calibrator_for_bandwidth(
            xavier_engine, "dla", 80.0
        )
        assert demand < 80.0  # DLA cannot generate that much
        assert kernel.op_intensity == 0.0

    def test_zero_target_rejected(self, xavier_engine):
        with pytest.raises(WorkloadError):
            calibrator_for_bandwidth(xavier_engine, "gpu", 0.0)

    def test_higher_target_means_lower_intensity(self, xavier_engine):
        low, _ = calibrator_for_bandwidth(xavier_engine, "gpu", 30.0)
        high, _ = calibrator_for_bandwidth(xavier_engine, "gpu", 90.0)
        assert high.op_intensity < low.op_intensity

    def test_repeated_search_is_memoized(self, monkeypatch):
        engine = CoRunEngine(soc_by_name("xavier-agx"))
        first = calibrator_for_bandwidth(engine, "cpu", 42.0)
        demand = engine.standalone_demand
        calls = []

        def counting_demand(kernel, pu_name):
            calls.append((kernel, pu_name))
            return demand(kernel, pu_name)

        monkeypatch.setattr(engine, "standalone_demand", counting_demand)
        assert calibrator_for_bandwidth(engine, "cpu", 42.0) == first
        assert calls == []  # no standalone profile consulted
        calibrator_for_bandwidth(engine, "cpu", 42.0, tolerance=0.001)
        assert calls  # another tolerance is another search
        fresh = CoRunEngine(soc_by_name("xavier-agx"))
        assert calibrator_for_bandwidth(fresh, "cpu", 42.0) == first
