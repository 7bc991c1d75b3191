"""End-to-end DRAM system simulation."""

import pytest

from repro.dram.cores import CoreConfig
from repro.dram.system import CMPSystem
from repro.errors import SimulationError

from tests.dram.strategies import mixed_cores

REQ = 400  # small runs keep the suite fast


def run_simple(policy="frfcfs", demand=40.0, cores=4, requests=REQ):
    system = CMPSystem(policy=policy)
    configs = system.group_configs(demand, cores, requests)
    return system, system.run(configs)


class TestBasics:
    def test_no_cores_rejected(self):
        with pytest.raises(SimulationError):
            CMPSystem().run([])

    def test_all_requests_complete(self):
        _, result = run_simple()
        for core in result.cores:
            assert core.completed == REQ
            assert core.finish_ns is not None

    def test_demand_limited_run_matches_pacing(self):
        """A light load finishes at its demanded rate."""
        system, result = run_simple(demand=8.0, cores=4)
        expected = REQ * 64.0 / 2.0  # per-core 2 GB/s -> 32 ns/request
        assert result.elapsed_ns == pytest.approx(expected, rel=0.1)

    def test_achieved_bw_close_to_light_demand(self):
        _, result = run_simple(demand=16.0, cores=4)
        total = sum(c.achieved_gbps for c in result.cores)
        assert total == pytest.approx(16.0, rel=0.15)

    def test_cores_never_exceed_demand(self):
        _, result = run_simple(demand=40.0, cores=4)
        for core in result.cores:
            assert core.achieved_gbps <= core.demand_gbps * 1.05

    def test_streaming_row_hit_rate_high(self):
        _, result = run_simple(policy="frfcfs", demand=80.0, cores=8)
        assert result.row_hit_rate > 0.9

    def test_effective_bw_bounded_by_peak(self):
        system, result = run_simple(demand=120.0, cores=8)
        assert result.effective_bw_gbps <= system.timing.peak_bw_gbps

    def test_group_result_aggregation(self):
        _, result = run_simple(cores=4)
        group = result.group([0, 1])
        assert group.demand_gbps == pytest.approx(
            result.cores[0].demand_gbps * 2
        )
        assert group.achieved_gbps == pytest.approx(
            result.cores[0].achieved_gbps + result.cores[1].achieved_gbps
        )


class TestStopCores:
    def test_background_left_unfinished(self):
        system = CMPSystem(policy="atlas")
        background = system.group_configs(40.0, 4, 100_000, index_offset=0)
        victims = system.group_configs(40.0, 4, REQ, index_offset=4)
        result = system.run(background + victims, stop_cores={4, 5, 6, 7})
        assert all(result.cores[i].finish_ns is not None for i in (4, 5, 6, 7))
        assert any(result.cores[i].finish_ns is None for i in range(4))

    @pytest.mark.parametrize("stop_cores", [{5}, {-1}, set()])
    def test_invalid_stop_cores_rejected(self, stop_cores):
        """Regression: an index past the last core raised a bare
        IndexError mid-run, -1 silently meant the last core, and an
        empty set ended the run when the first core finished."""
        system = CMPSystem()
        configs = system.group_configs(10.0, 2, 50)
        with pytest.raises(SimulationError, match="stop_cores"):
            system.run(configs, stop_cores=stop_cores)

    def test_max_ns_guard(self):
        system = CMPSystem()
        configs = system.group_configs(1.0, 2, 10_000_000)
        result = system.run(configs, max_ns=10_000.0)
        assert result.elapsed_ns == 10_000.0

    @pytest.mark.parametrize("max_ns", [3000.0, 500.0])
    def test_truncated_run_elapses_max_ns(self, max_ns):
        """The guard stops the run before the first event past
        ``max_ns``, so no simulated time passes after ``max_ns`` and the
        bandwidths divide by it."""
        result = CMPSystem(policy="frfcfs").run(mixed_cores(6), max_ns=max_ns)
        assert result.elapsed_ns == max_ns
        assert any(core.finish_ns is None for core in result.cores)
        for core in result.cores:
            assert core.achieved_gbps == core.completed * 64.0 / max_ns


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["fcfs", "frfcfs", "atlas", "tcm", "sms"])
    def test_same_seed_same_result(self, policy):
        a = CMPSystem(policy=policy, seed=7)
        b = CMPSystem(policy=policy, seed=7)
        ra = a.run(a.group_configs(60.0, 4, REQ))
        rb = b.run(b.group_configs(60.0, 4, REQ))
        assert ra.elapsed_ns == rb.elapsed_ns
        assert ra.row_hit_rate == rb.row_hit_rate


class TestPolicyCharacter:
    """Qualitative Section 2.3 properties on a small co-location."""

    @pytest.fixture(scope="class")
    def contended(self):
        results = {}
        for policy in ("fcfs", "frfcfs", "atlas"):
            system = CMPSystem(policy=policy)
            light = system.group_configs(48.0, 4, 100_000, index_offset=0)
            heavy = system.group_configs(72.0, 4, REQ * 4, index_offset=4)
            results[policy] = system.run(
                light + heavy, stop_cores={4, 5, 6, 7}
            )
        return results

    def test_frfcfs_has_best_locality(self, contended):
        assert contended["frfcfs"].row_hit_rate >= max(
            contended["fcfs"].row_hit_rate,
            contended["atlas"].row_hit_rate - 0.05,
        )

    def test_fcfs_has_worst_locality(self, contended):
        assert contended["fcfs"].row_hit_rate <= min(
            contended["frfcfs"].row_hit_rate,
            contended["atlas"].row_hit_rate,
        )

    def test_atlas_fairer_to_light_group_than_frfcfs(self, contended):
        atlas_light = contended["atlas"].group(range(4))
        frfcfs_light = contended["frfcfs"].group(range(4))
        assert (
            atlas_light.achieved_gbps >= frfcfs_light.achieved_gbps - 2.0
        )

    def test_group_configs_validation(self):
        with pytest.raises(SimulationError):
            CMPSystem().group_configs(10.0, 0, 100)
