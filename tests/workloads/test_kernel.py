"""Kernel and phase specifications."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import WorkloadError
from repro.workloads.kernel import KernelSpec, Phase, single_phase_kernel


class TestPhase:
    def test_op_intensity(self):
        p = Phase("p", flops=2e9, traffic_bytes=1e9)
        assert p.op_intensity == 2.0

    def test_zero_traffic_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("p", flops=1e9, traffic_bytes=0.0)

    def test_nan_traffic_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("p", flops=1e9, traffic_bytes=float("nan"))

    def test_negative_flops_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("p", flops=-1.0, traffic_bytes=1e9)

    def test_locality_bounds(self):
        with pytest.raises(WorkloadError):
            Phase("p", flops=1e9, traffic_bytes=1e9, locality=0.0)
        with pytest.raises(WorkloadError):
            Phase("p", flops=1e9, traffic_bytes=1e9, locality=1.5)

    def test_zero_flops_allowed(self):
        assert Phase("p", flops=0.0, traffic_bytes=1e9).op_intensity == 0.0


class TestKernelSpec:
    def test_empty_phases_rejected(self):
        with pytest.raises(WorkloadError):
            KernelSpec(name="k", phases=())

    def test_empty_name_rejected(self):
        with pytest.raises(WorkloadError):
            KernelSpec(name="", phases=(Phase("p", 1e9, 1e9),))

    def test_totals(self):
        k = KernelSpec(
            name="k",
            phases=(Phase("a", 1e9, 2e9), Phase("b", 3e9, 4e9)),
        )
        assert k.total_flops == 4e9
        assert k.total_bytes == 6e9
        assert k.op_intensity == pytest.approx(4.0 / 6.0)

    def test_is_multiphase(self):
        single = single_phase_kernel("s", 1.0)
        assert not single.is_multiphase
        multi = KernelSpec(
            name="m", phases=(Phase("a", 1e9, 1e9), Phase("b", 1e9, 1e9))
        )
        assert multi.is_multiphase

    def test_hashable(self):
        a = single_phase_kernel("k", 2.0)
        b = single_phase_kernel("k", 2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestScaled:
    def test_preserves_intensity(self):
        k = single_phase_kernel("k", 7.0)
        assert k.scaled(3.0).op_intensity == pytest.approx(7.0)

    def test_scales_work(self):
        k = single_phase_kernel("k", 7.0, traffic_gb=1.0)
        assert k.scaled(3.0).total_bytes == pytest.approx(3e9)

    def test_default_name(self):
        assert single_phase_kernel("k", 7.0).scaled(2.0).name == "kx2"

    def test_custom_name(self):
        assert single_phase_kernel("k", 7.0).scaled(2.0, name="big").name == "big"

    def test_zero_factor_rejected(self):
        with pytest.raises(WorkloadError):
            single_phase_kernel("k", 7.0).scaled(0.0)

    @given(st.floats(0.1, 10.0))
    def test_scaling_multiplies_everything(self, factor):
        k = single_phase_kernel("k", 3.0, traffic_gb=2.0)
        s = k.scaled(factor)
        assert s.total_flops == pytest.approx(k.total_flops * factor)
        assert s.total_bytes == pytest.approx(k.total_bytes * factor)


class TestSinglePhaseKernel:
    def test_traffic_volume(self):
        k = single_phase_kernel("k", 5.0, traffic_gb=2.0)
        assert k.total_bytes == 2e9

    def test_negative_intensity_rejected(self):
        with pytest.raises(WorkloadError):
            single_phase_kernel("k", -1.0)

    def test_tags_stored(self):
        k = single_phase_kernel("k", 1.0, tags=("x",), suite="s")
        assert k.tags == ("x",)
        assert k.suite == "s"
