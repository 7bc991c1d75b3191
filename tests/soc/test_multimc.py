"""Multi-memory-controller extension (paper Section 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.soc.configs import xavier_agx
from repro.soc.engine import CoRunEngine
from repro.soc.multimc import (
    MCPartition,
    PartitionedMemorySystem,
    split_socs_memory,
)
from repro.soc.pu import profile_phase
from repro.workloads.kernel import Phase, single_phase_kernel
from repro.workloads.roofline import calibrator_for_bandwidth, max_demand_kernel


def xavier_partitions():
    return (
        MCPartition(name="mc0", pu_names=("gpu",), peak_fraction=0.5),
        MCPartition(name="mc1", pu_names=("cpu", "dla"), peak_fraction=0.5),
    )


@pytest.fixture(scope="module")
def partitioned_engine():
    soc = xavier_agx()
    memory = split_socs_memory(soc, xavier_partitions())
    return CoRunEngine(soc, memory_system=memory)


class TestValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            PartitionedMemorySystem(
                100.0,
                (MCPartition("mc0", ("gpu",), 0.5),),
            )

    def test_overlapping_pus_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionedMemorySystem(
                100.0,
                (
                    MCPartition("mc0", ("gpu",), 0.5),
                    MCPartition("mc1", ("gpu", "cpu"), 0.5),
                ),
            )

    def test_empty_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            MCPartition("mc0", (), 0.5)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            MCPartition("mc0", ("gpu",), 1.5)

    def test_unassigned_pu_rejected(self):
        system = PartitionedMemorySystem(
            100.0, (MCPartition("mc0", ("gpu",), 1.0),)
        )
        with pytest.raises(ConfigurationError):
            system.partition_of("cpu")


class TestPartitionedBehaviour:
    def test_standalone_bandwidth_halved(self, partitioned_engine):
        """A PU behind half the channels sees half the peak."""
        full_engine = CoRunEngine(xavier_agx())
        demand_full = full_engine.standalone_demand(
            max_demand_kernel(), "gpu"
        )
        demand_half = partitioned_engine.standalone_demand(
            max_demand_kernel(), "gpu"
        )
        assert demand_half == pytest.approx(demand_full / 2, rel=0.15)

    def test_cross_partition_isolation(self, partitioned_engine):
        """The headline property: PUs behind different controllers do
        not slow each other down."""
        victim = single_phase_kernel("victim", 30.0)  # GPU, mc0
        pressure, _ = calibrator_for_bandwidth(
            partitioned_engine, "cpu", 60.0
        )  # CPU, mc1
        rs = partitioned_engine.relative_speed(
            "gpu", victim, {"cpu": pressure}
        )
        assert rs == pytest.approx(1.0, abs=0.01)

    def test_same_partition_still_contends(self, partitioned_engine):
        """CPU and DLA share mc1 and do interfere."""
        victim = single_phase_kernel("victim", 40.0)  # DLA kernel
        pressure, _ = calibrator_for_bandwidth(
            partitioned_engine, "cpu", 50.0
        )
        rs = partitioned_engine.relative_speed(
            "dla", victim, {"cpu": pressure}
        )
        assert rs < 0.97

    def test_resolve_preserves_order(self, partitioned_engine):
        from repro.soc.pu import stream_for_phase

        soc = xavier_agx()
        streams = []
        for pu_name in ("cpu", "gpu", "dla"):
            kernel = single_phase_kernel(f"k-{pu_name}", 30.0)
            profile = partitioned_engine.profile(kernel, pu_name)
            streams.append(
                stream_for_phase(soc.pu(pu_name), profile.phases[0])
            )
        grants = partitioned_engine.memory.resolve(streams)
        assert [g.name for g in grants] == ["cpu", "gpu", "dla"]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_profiles_like_its_partition(self, partitioned_engine, data):
        """``profile_phase`` reads the loaded-latency constants from
        ``memory.behavior``; on a partitioned system every PU must still
        profile a phase exactly as on its own controller's model."""
        memory = partitioned_engine.memory
        for pu in partitioned_engine.soc.pus:
            traffic = data.draw(st.floats(1e6, 2e9))
            phase = Phase(
                name="p",
                flops=data.draw(st.floats(0.0, 200.0)) * traffic,
                traffic_bytes=traffic,
                locality=data.draw(
                    st.one_of(st.just(1.0), st.floats(0.05, 1.0))
                ),
            )
            assert profile_phase(pu, phase, memory) == profile_phase(
                pu, phase, memory.system_for(pu.name)
            )

    def test_effective_bw_rejects_mixed_partitions(self, partitioned_engine):
        from repro.soc.pu import stream_for_phase

        soc = xavier_agx()
        streams = []
        for pu_name in ("cpu", "gpu"):
            kernel = single_phase_kernel(f"k2-{pu_name}", 20.0)
            profile = partitioned_engine.profile(kernel, pu_name)
            streams.append(
                stream_for_phase(soc.pu(pu_name), profile.phases[0])
            )
        with pytest.raises(SimulationError):
            partitioned_engine.memory.effective_bw(streams)


class TestDesignTradeoff:
    def test_partitioning_trades_peak_for_isolation(self):
        """The architect's choice the extension exposes: partitioned
        memory isolates the GPU from CPU pressure but caps its
        standalone bandwidth."""
        soc = xavier_agx()
        shared = CoRunEngine(soc)
        partitioned = CoRunEngine(
            soc, memory_system=split_socs_memory(soc, xavier_partitions())
        )
        victim = single_phase_kernel("victim", 11.0)  # heavy GPU kernel

        # Shared memory: higher standalone, but contention bites.
        pressure, _ = calibrator_for_bandwidth(shared, "cpu", 90.0)
        rs_shared = shared.relative_speed("gpu", victim, {"cpu": pressure})
        # Partitioned: lower standalone, no contention.
        pressure_p, _ = calibrator_for_bandwidth(partitioned, "cpu", 40.0)
        rs_partitioned = partitioned.relative_speed(
            "gpu", victim, {"cpu": pressure_p}
        )
        assert rs_partitioned > rs_shared
        assert partitioned.standalone_demand(
            victim, "gpu"
        ) < shared.standalone_demand(victim, "gpu")
