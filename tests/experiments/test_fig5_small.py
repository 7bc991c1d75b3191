"""Fig. 5 / Table 3 experiment at a tiny scale (full scale in benchmarks)."""

import pytest

from repro.dram.system import CMPSystem
from repro.errors import ConfigurationError
from repro.experiments.fig5_table3 import run_fig5_table3


@pytest.fixture(scope="module")
def result():
    return run_fig5_table3(
        victim_demands=(36.0, 72.0),
        pressure_levels=(12.0, 48.0, 90.0),
        requests=500,
        policies=("fcfs", "atlas"),
    )


class TestStructure:
    def test_curves_per_policy(self, result):
        assert [name for name, _ in result.curves] == ["fcfs", "atlas"]

    def test_series_per_victim(self, result):
        series = result.policy_series("atlas")
        assert [s.name for s in series] == ["36 GB/s", "72 GB/s"]

    def test_stats_rows(self, result):
        stats = result.policy_stats("fcfs")
        assert 0.0 <= stats.row_hit_rate <= 1.0
        assert 0.0 <= stats.effective_bw_fraction <= 1.0

    def test_unknown_policy_rejected(self, result):
        with pytest.raises(KeyError):
            result.policy_series("lifo")

    def test_render(self, result):
        text = result.render()
        assert "Table 3" in text and "policy fcfs" in text


class TestQualitative:
    def test_speeds_are_fractions(self, result):
        for _, series_list in result.curves:
            for series in series_list:
                assert all(0.0 < y <= 1.0 for y in series.y)

    def test_fairness_hurts_heavy_victims_more_than_fcfs_spares_them(
        self, result
    ):
        """ATLAS throttles the heavy group under light-group pressure."""
        atlas = result.policy_series("atlas")[1]  # 72 GB/s victims
        assert atlas.y[-1] < atlas.y[0]

    def test_heavier_victims_slow_more(self, result):
        for policy in ("fcfs", "atlas"):
            light, heavy = result.policy_series(policy)
            assert heavy.y[-1] <= light.y[-1] + 0.1


class TestGrid:
    def test_grid_below_the_peak_rejected_before_any_run(self, monkeypatch):
        """Without a saturated point Table 3 has nothing to report."""

        def run(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(CMPSystem, "run", run)
        with pytest.raises(ConfigurationError, match="102.4 GB/s"):
            run_fig5_table3(
                victim_demands=(18.0,),
                pressure_levels=(6.0,),
                policies=("fcfs",),
            )
