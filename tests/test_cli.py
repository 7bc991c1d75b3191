"""Command-line interface."""

import pytest

from repro.cli import main


class TestPlatforms:
    def test_lists_builtin_socs(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "xavier-agx" in out and "snapdragon-855" in out


class TestCalibrate:
    def test_prints_parameter_summary(self, capsys):
        assert main(["calibrate", "--soc", "xavier-agx", "--pu", "dla"]) == 0
        out = capsys.readouterr().out
        assert "dla:" in out and "TBWDC" in out


class TestPredict:
    def test_prints_prediction(self, capsys):
        code = main(
            [
                "predict",
                "--soc",
                "xavier-agx",
                "--pu",
                "gpu",
                "--demand",
                "60",
                "--external",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relative speed" in out
        assert "region" in out


class TestProfile:
    def test_profiles_dla_suite(self, capsys):
        assert main(["profile", "--soc", "xavier-agx", "--pu", "dla"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out

    def test_profiles_cpu_suite(self, capsys):
        assert main(["profile", "--soc", "snapdragon-855", "--pu", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "streamcluster" in out


class TestExperimentSubcommand:
    def test_list_forwarding(self, capsys):
        # 'experiment' with no names and no --all prints help, exit 2.
        assert main(["experiment"]) == 2

    def test_jobs_forwarding(self, capsys):
        assert main(["experiment", "fig2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "==== fig2" in out

    def test_jobs_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig2", "--jobs", "0"])

    def test_runner_flags_reach_the_runner(self, tmp_path, capsys):
        """The runner parses the arguments itself, so each of its
        flags works here, a leading one included."""
        out_dir = tmp_path / "out"
        argv = ["experiment", "fig2", "--out", str(out_dir), "--csv"]
        assert main(argv) == 0
        assert (out_dir / "fig2.txt").is_file()
        assert list(out_dir.glob("fig2_*.csv"))
        capsys.readouterr()
        assert main(["experiment", "--list"]) == 0
        assert "fig5_table3" in capsys.readouterr().out.split()

    def test_help_is_the_runners(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        assert "--csv" in capsys.readouterr().out

    def test_usage_names_the_subcommand(self, capsys):
        """Help and usage errors name ``pccs experiment``, whatever
        script started the process."""
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        assert capsys.readouterr().out.startswith("usage: pccs experiment ")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig2", "--jobs", "x"])
        assert exc.value.code == 2
        assert "pccs experiment: error: argument --jobs" in (
            capsys.readouterr().err
        )

    def test_other_commands_reject_unknown_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["platforms", "--csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
