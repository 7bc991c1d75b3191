"""Experiment runner CLI and CSV export."""

import json
import re

import pytest

from repro.experiments.runner import (
    EXPERIMENTS,
    collect_series,
    get_runner,
    main,
    run_experiment,
    save_result_csvs,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for name in (
            "fig2",
            "fig3",
            "fig5_table3",
            "fig6",
            "table5",
            "table7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "table9_fig15",
            "table10",
            "usecase_cores",
            "source_obliviousness",
        ):
            assert name in EXPERIMENTS, name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_get_runner_known(self):
        assert get_runner("fig8") is EXPERIMENTS["fig8"]

    def test_get_runner_unknown_lists_available(self):
        with pytest.raises(KeyError, match="available:.*fig8"):
            get_runner("fig99")

    def test_main_unknown_name_fails_before_running(self, capsys):
        with pytest.raises(KeyError, match="fig99"):
            main(["fig2", "fig99"])
        assert "====" not in capsys.readouterr().out


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table7" in out

    def test_no_names_prints_help(self, capsys):
        assert main([]) == 2

    def test_run_one_and_save(self, tmp_path, capsys):
        assert main(["fig6", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig6.txt").exists()
        assert "Fig 6" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        assert main(["fig6", "--out", str(tmp_path), "--csv"]) == 0
        csvs = list(tmp_path.glob("fig6_*.csv"))
        assert csvs
        header = csvs[0].read_text().splitlines()[0]
        assert header.startswith("x,")


class TestCollectSeries:
    def test_flat_series_result(self):
        from repro.experiments.fig6 import run_fig6

        groups = collect_series(run_fig6(steps=4))
        assert "main" in groups

    def test_panel_result(self):
        from repro.experiments.fig3 import run_fig3

        result = run_fig3(steps=4, panels={"a": (15.0,)})
        groups = collect_series(result)
        assert "a" in groups

    def test_table_result_has_no_series(self):
        from repro.experiments.table7 import run_table7

        assert collect_series(run_table7(platforms=("xavier-agx",))) == {}

    def test_colliding_stems_are_disambiguated(self):
        class FakeResult:
            panels = [
                ("mode a", ["s1"]),
                ("mode_a", ["s2"]),
                ("mode/a", ["s3"]),
            ]

        groups = collect_series(FakeResult())
        # "mode a" and "mode_a" both sanitise to "mode_a"; no group may
        # be silently dropped.
        assert groups == {
            "mode_a": ["s1"],
            "mode_a_2": ["s2"],
            "mode-a": ["s3"],
        }

    def test_save_csvs_counts(self, tmp_path):
        from repro.experiments.fig6 import run_fig6

        count = save_result_csvs("fig6", run_fig6(steps=4), tmp_path)
        assert count == 1
        assert (tmp_path / "fig6_main.csv").exists()


def _printed_counters(out):
    """The counter rows of the last ``metrics`` table printed to ``out``."""
    lines = out.splitlines()
    header = max(
        i for i, line in enumerate(lines)
        if line.split() == ["metric", "kind", "value"]
    )
    counters = {}
    for line in lines[header + 2:]:
        cells = line.split()
        if len(cells) != 3:
            break
        if cells[1] == "counter":
            counters[cells[0]] = float(cells[2])
    return counters


class TestPooledExperimentsObservability:
    def test_metrics_trace_and_sim_cache_agree(self, tmp_path, capsys):
        """Several experiments under ``--jobs 2`` with ``--metrics``,
        ``--trace`` and ``--sim-cache``: the printed counters, the
        ``sim-cache:`` line, the records on disk and the trace file all
        describe the same run."""
        import repro.perf.simcache as simcache_module
        from repro.experiments import common
        from repro.obs import validate_chrome_trace
        from repro.perf import shutdown_pool

        trace = tmp_path / "trace.json"
        cache_dir = tmp_path / "cache"
        shutdown_pool()  # fresh workers hold no calibrations in memory
        common.clear_caches()
        argv = [
            "fig2", "fig6", "--jobs", "2", "--metrics",
            "--trace", str(trace), "--sim-cache", str(cache_dir),
        ]
        try:
            assert main(argv) == 0
        finally:
            shutdown_pool()
        captured = capsys.readouterr()

        counters = _printed_counters(captured.out)
        stores = re.search(r"sim-cache: .* (\d+) store\(s\)", captured.err)
        assert stores is not None, captured.err
        on_disk = sum(
            len(list(simcache_module._records(path.read_bytes())))
            for path in cache_dir.glob("*.pkl")
        )
        assert on_disk >= 1
        assert counters["perf.simcache.stores"] == int(stores.group(1))
        assert counters["perf.simcache.stores"] == on_disk
        assert counters["soc.coruns"] > 0

        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        assert any(e["pid"] >= 10 for e in payload["traceEvents"])
        assert payload["otherData"]["metrics"]["counters"] == counters
