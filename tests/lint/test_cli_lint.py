"""``pccs lint`` CLI: exit codes 0 (clean) / 1 (findings) / 2 (usage)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import ALL_RULE_IDS

CLEAN = "def f(x):\n    return x + 1\n"
DIRTY = "def f(out=[]):\n    return out\n"


@pytest.fixture()
def clean_file(tmp_path: Path) -> Path:
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


@pytest.fixture()
def dirty_file(tmp_path: Path) -> Path:
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    return path


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file, capsys):
        assert main(["lint", str(clean_file)]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "LINT005" in out

    def test_unknown_rule_exits_two(self, clean_file, capsys):
        assert main(["lint", "--rules", "LINT999", str(clean_file)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/path.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_format_usage_error(self, clean_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "yaml", str(clean_file)])
        assert excinfo.value.code == 2


class TestOutput:
    def test_json_format(self, dirty_file, capsys):
        assert main(["lint", "--format", "json", str(dirty_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "LINT005"

    def test_rule_subset(self, dirty_file, capsys):
        # LINT004 alone does not see the mutable default.
        assert main(["lint", "--rules", "LINT004", str(dirty_file)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("LINT001", "LINT004", "LINT007"):
            assert rule_id in out

    def test_directory_target(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(DIRTY)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text(DIRTY)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("LINT005") == 2

    def test_default_path_is_repro_package(
        self, tmp_path, monkeypatch, capsys
    ):
        # No path argument: the walk covers the installed package. One
        # cheap rule keeps this fast; tests/lint/test_self_clean.py
        # pins the full-rule clean result.
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--cache", "--rules", "LINT005"]) == 0
        err = capsys.readouterr().err
        misses = re.search(r"(\d+) miss\(es\)", err)
        assert misses is not None and int(misses.group(1)) > 80

    def test_list_rules_includes_flow_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("LINT011", "LINT012", "LINT019"):
            assert rule_id in out


class TestCacheFlag:
    def test_cache_populates_and_hits(
        self, dirty_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--cache", str(dirty_file)]) == 1
        err = capsys.readouterr().err
        assert "0 hit(s), 1 miss(es)" in err
        assert (tmp_path / ".lint-cache").is_dir()
        assert main(["lint", "--cache", str(dirty_file)]) == 1
        err = capsys.readouterr().err
        assert "1 hit(s), 0 miss(es)" in err

    def test_cached_run_matches_uncached(
        self, dirty_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        main(["lint", str(dirty_file)])
        plain = capsys.readouterr().out
        main(["lint", "--cache", str(dirty_file)])
        capsys.readouterr()
        main(["lint", "--cache", str(dirty_file)])
        cached = capsys.readouterr().out
        assert cached == plain


class TestSarifFormat:
    def test_sarif_document_round_trips(self, dirty_file, capsys):
        assert (
            main(["lint", "--format", "sarif", str(dirty_file)]) == 1
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "LINT005"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_clean_tree_renders_empty_results(self, clean_file, capsys):
        assert (
            main(["lint", "--format", "sarif", str(clean_file)]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []
        # The full rule catalogue ships even on clean runs.
        driver_rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [rule["id"] for rule in driver_rules] == list(ALL_RULE_IDS)


class TestExplainFlag:
    def test_explain_prints_rationale_and_exits_zero(self, capsys):
        assert main(["lint", "--explain", "LINT007"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("LINT007")
        assert "Scope: single file." in out
        assert "UnknownKeyError" in out
        assert "True positive" in out
        assert "Suppression" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["lint", "--explain", "lint018"]) == 0
        assert "_LAZY_EXPORTS" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--explain", "LINT999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestProfileFlag:
    def test_profile_prints_per_rule_seconds(self, dirty_file, capsys):
        assert main(["lint", "--profile", str(dirty_file)]) == 1
        captured = capsys.readouterr()
        assert "pccs lint --profile" in captured.err
        assert "LINT005" in captured.err
        assert "total" in captured.err
        # The findings themselves are unaffected.
        assert "LINT005" in captured.out

    def test_no_profile_no_table(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        assert "pccs lint --profile" not in capsys.readouterr().err


class TestGraphCommand:
    def write_fixture(self, tmp_path):
        src_dir = tmp_path / "src" / "repro" / "soc"
        src_dir.mkdir(parents=True)
        (src_dir / "a.py").write_text("import repro.soc.b\n")
        (src_dir / "b.py").write_text("X = 1\n")
        return tmp_path / "src"

    def test_dot_is_the_default(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        assert main(["graph", str(root)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph imports")

    def test_modules_flag_shows_module_edges(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        assert main(["graph", "--modules", str(root)]) == 0
        out = capsys.readouterr().out
        assert '"repro.soc.a" -> "repro.soc.b"' in out

    def test_json_payload(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        assert main(["graph", "--json", str(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["modules"]) == {"repro.soc.a", "repro.soc.b"}
        assert payload["cycles"] == []

    def test_out_writes_a_file(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        target = tmp_path / "graph.dot"
        assert main(["graph", str(root), "--out", str(target)]) == 0
        assert "graph: wrote" in capsys.readouterr().out
        assert target.read_text().startswith("digraph imports")

    def test_missing_path_is_an_error(self, capsys):
        assert main(["graph", "no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_repo_graph_includes_contract_layers(self, capsys):
        # Against the installed package: the real architecture.toml is
        # discovered and its layers become DOT clusters.
        assert main(["graph"]) == 0
        out = capsys.readouterr().out
        assert "cluster_core" in out
        assert '"repro.lint"' in out
