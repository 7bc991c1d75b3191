"""Co-run engine semantics."""

import pytest

from repro.errors import SimulationError
from repro.obs import runtime as obs_runtime
from repro.soc.engine import CoRunEngine
from repro.soc.configs import xavier_agx
from repro.soc.spec import PUType
from repro.workloads.kernel import single_phase_kernel
from repro.workloads.rodinia import rodinia_kernel
from repro.workloads.roofline import (
    calibrator_for_bandwidth,
    max_demand_kernel,
)


@pytest.fixture()
def gpu_kernel():
    return single_phase_kernel("mid", 20.0)  # mid-demand on the GPU


class TestStandalone:
    def test_profile_cached(self, xavier_engine, gpu_kernel):
        a = xavier_engine.profile(gpu_kernel, "gpu")
        b = xavier_engine.profile(gpu_kernel, "gpu")
        assert a is b

    def test_cache_is_per_pu(self, xavier_engine, gpu_kernel):
        a = xavier_engine.profile(gpu_kernel, "gpu")
        b = xavier_engine.profile(gpu_kernel, "cpu")
        assert a is not b

    def test_standalone_seconds_positive(self, xavier_engine, gpu_kernel):
        assert xavier_engine.standalone_seconds(gpu_kernel, "gpu") > 0


class TestCoRunBasics:
    def test_empty_placement_rejected(self, xavier_engine):
        with pytest.raises(SimulationError):
            xavier_engine.corun({})

    def test_unknown_until_rejected(self, xavier_engine, gpu_kernel):
        with pytest.raises(SimulationError):
            xavier_engine.corun({"gpu": gpu_kernel}, until="sometime")

    def test_looping_must_be_placed(self, xavier_engine, gpu_kernel):
        with pytest.raises(SimulationError):
            xavier_engine.corun({"gpu": gpu_kernel}, looping={"cpu"})

    def test_all_looping_rejected(self, xavier_engine, gpu_kernel):
        with pytest.raises(SimulationError):
            xavier_engine.corun({"gpu": gpu_kernel}, looping={"gpu"})

    def test_single_kernel_runs_at_full_speed(self, xavier_engine, gpu_kernel):
        result = xavier_engine.corun({"gpu": gpu_kernel})
        assert result.relative_speed("gpu") == pytest.approx(1.0, abs=0.02)

    def test_single_kernel_elapsed_matches_standalone(
        self, xavier_engine, gpu_kernel
    ):
        result = xavier_engine.corun({"gpu": gpu_kernel})
        assert result.elapsed == pytest.approx(
            xavier_engine.standalone_seconds(gpu_kernel, "gpu"), rel=0.02
        )

    def test_unknown_pu_in_result_rejected(self, xavier_engine, gpu_kernel):
        result = xavier_engine.corun({"gpu": gpu_kernel})
        with pytest.raises(SimulationError):
            result.outcome("npu")


class TestCoRunContention:
    def test_corun_slower_than_standalone(self, xavier_engine):
        victim = single_phase_kernel("victim", 11.0)  # ~125 GB/s on GPU
        pressure, _ = calibrator_for_bandwidth(xavier_engine, "cpu", 90.0)
        rs = xavier_engine.relative_speed("gpu", victim, {"cpu": pressure})
        assert rs < 0.9

    def test_relative_speed_bounded(self, xavier_engine):
        victim = single_phase_kernel("victim", 25.0)
        pressure, _ = calibrator_for_bandwidth(xavier_engine, "cpu", 60.0)
        rs = xavier_engine.relative_speed("gpu", victim, {"cpu": pressure})
        assert 0.0 < rs <= 1.0

    def test_pressure_intensity_matters(self, xavier_engine):
        victim = single_phase_kernel("victim", 20.0)
        light, _ = calibrator_for_bandwidth(xavier_engine, "cpu", 20.0)
        heavy, _ = calibrator_for_bandwidth(xavier_engine, "cpu", 90.0)
        rs_light = xavier_engine.relative_speed("gpu", victim, {"cpu": light})
        rs_heavy = xavier_engine.relative_speed("gpu", victim, {"cpu": heavy})
        assert rs_heavy < rs_light

    def test_until_first_stops_at_first_victim(self, xavier_engine):
        fast = single_phase_kernel("fast", 20.0, traffic_gb=0.1)
        slow = single_phase_kernel("slow", 20.0, traffic_gb=2.0)
        result = xavier_engine.corun({"gpu": fast, "cpu": slow}, until="first")
        assert result.outcome("gpu").finished
        assert not result.outcome("cpu").finished

    def test_until_all_finishes_everyone(self, xavier_engine):
        fast = single_phase_kernel("fast", 20.0, traffic_gb=0.1)
        slow = single_phase_kernel("slow", 20.0, traffic_gb=0.5)
        result = xavier_engine.corun({"gpu": fast, "cpu": slow}, until="all")
        assert result.outcome("gpu").finished
        assert result.outcome("cpu").finished

    def test_looping_pressure_never_finishes(self, xavier_engine):
        victim = single_phase_kernel("victim", 20.0, traffic_gb=0.3)
        pressure = single_phase_kernel("pressure", 5.0, traffic_gb=0.01)
        result = xavier_engine.corun(
            {"gpu": victim, "cpu": pressure}, looping={"cpu"}, until="first"
        )
        assert result.outcome("gpu").finished
        assert not result.outcome("cpu").finished
        # The looping aggressor must have restarted many times.
        assert result.outcome("cpu").avg_achieved_bw > 0

    def test_outcome_bw_satisfaction(self, xavier_engine):
        victim = single_phase_kernel("victim", 11.0)
        pressure, _ = calibrator_for_bandwidth(xavier_engine, "cpu", 90.0)
        result = xavier_engine.corun(
            {"gpu": victim, "cpu": pressure}, looping={"cpu"}
        )
        outcome = result.outcome("gpu")
        assert 0.0 < outcome.bw_satisfaction <= 1.0

    def test_three_pu_corun(self, xavier_engine):
        from repro.workloads.dnn import dnn_model

        result = xavier_engine.corun(
            {
                "cpu": rodinia_kernel("streamcluster", PUType.CPU),
                "gpu": rodinia_kernel("pathfinder", PUType.GPU),
                "dla": dnn_model("resnet50"),
            },
            until="first",
        )
        assert len(result.outcomes) == 3
        assert any(o.finished for o in result.outcomes)
        for o in result.outcomes:
            assert 0.0 < o.relative_speed <= 1.0

    @pytest.mark.parametrize("max_seconds", [0.0, -1.0, float("nan")])
    def test_max_seconds_that_bounds_no_run_rejected(
        self, xavier_engine, gpu_kernel, max_seconds
    ):
        with pytest.raises(SimulationError, match="max_seconds"):
            xavier_engine.corun({"gpu": gpu_kernel}, max_seconds=max_seconds)

    def test_infinite_max_seconds_sets_no_guard(
        self, xavier_engine, gpu_kernel
    ):
        result = xavier_engine.corun(
            {"gpu": gpu_kernel}, max_seconds=float("inf")
        )
        assert result.outcome("gpu").finished

    def test_max_seconds_guard(self, xavier_engine):
        victim = single_phase_kernel("huge", 20.0, traffic_gb=100.0)
        result = xavier_engine.corun(
            {"gpu": victim}, max_seconds=0.001
        )
        assert result.elapsed <= 0.001 + 1e-9
        assert not result.outcome("gpu").finished


class TestDeterminism:
    def test_corun_reproducible(self, gpu_kernel):
        a = CoRunEngine(xavier_agx())
        b = CoRunEngine(xavier_agx())
        pressure = single_phase_kernel("p", 2.0, traffic_gb=0.2)
        ra = a.corun({"gpu": gpu_kernel, "cpu": pressure}, looping={"cpu"})
        rb = b.corun({"gpu": gpu_kernel, "cpu": pressure}, looping={"cpu"})
        assert ra.relative_speed("gpu") == rb.relative_speed("gpu")
        assert ra.elapsed == rb.elapsed


class TestPhaseTransitions:
    """``soc.phase_transitions`` counts phase and loop roll-overs; a
    kernel finishing is an event but not a transition."""

    @staticmethod
    def corun_cfd_against_looping_cpu():
        CoRunEngine(xavier_agx()).corun(
            {
                "gpu": rodinia_kernel("cfd", PUType.GPU),
                "cpu": max_demand_kernel(),
            },
            looping={"cpu"},
        )

    def test_metrics_only_count(self):
        with obs_runtime.session(metrics=True) as sess:
            self.corun_cfd_against_looping_cpu()
            snapshot = sess.metrics.snapshot()
        assert snapshot.counter_value("soc.epochs") == 5
        # cfd's three GPU phase changes and one CPU loop.
        assert snapshot.counter_value("soc.phase_transitions") == 4

    def test_traced_run_emits_one_event_per_transition(self):
        with obs_runtime.session(trace=True, metrics=True) as sess:
            self.corun_cfd_against_looping_cpu()
            names = [event.name for event in sess.tracer.buffer.events]
            count = sess.metrics.snapshot().counter_value(
                "soc.phase_transitions"
            )
        assert names.count("phase.transition") == count == 4
        assert names.count("kernel.finished") == 1
