"""TP/TN fixtures for the architecture rules (LINT017-019), plus the
mechanized acceptance check that every ``[[allow]]`` entry in the real
``architecture.toml`` is load-bearing.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import repro
from repro.lint import lint_source
from repro.lint.engine import iter_python_files, lint_files
from repro.lint.importgraph import (
    CONTRACT_FILE_NAME,
    build_import_graph,
    find_contract,
    layering_violations,
    load_contract,
)
from repro.lint.rules import ALL_RULE_IDS, RULES_BY_ID

PACKAGE_ROOT = Path(repro.__file__).parent

FIXTURE_CONTRACT = """
[order]
sequence = ["core", "model", "cli"]

[layers]
core = ["repro.errors"]
model = ["repro.soc"]
cli = ["repro.cli"]

[[allow]]
from = "repro.soc"
to = "repro.cli"
reason = "fixture exception used by the allow-edge tests"

[deadcode]
roots = ["tests"]
entry_points = ["repro.cli:main"]
"""


def write_tree(tmp_path: Path, files, contract=FIXTURE_CONTRACT):
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src))
    if contract is not None:
        (tmp_path / CONTRACT_FILE_NAME).write_text(
            textwrap.dedent(contract)
        )


def lint_tree(tmp_path: Path, rules):
    files = sorted(iter_python_files([str(tmp_path / "src")]))
    return lint_files(files, rule_ids=rules)


def tree_rule_ids(tmp_path: Path, rules):
    return [f.rule for f in lint_tree(tmp_path, rules)]


class TestRegistryWiring:
    def test_new_rules_are_registered(self):
        for rule_id in ("LINT017", "LINT018", "LINT019"):
            assert rule_id in ALL_RULE_IDS

    def test_rule_class_constants(self):
        assert RULES_BY_ID["LINT019"].interprocedural
        module_graph = {
            rule_id
            for rule_id, rule in RULES_BY_ID.items()
            if rule.module_graph
        }
        assert module_graph == {"LINT017", "LINT018"}


class TestLint017Layering:
    def test_positive_upward_import(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/errors.py": "from repro.soc.a import X\n",
                "src/repro/soc/a.py": "X = 1\n",
            },
        )
        findings = lint_tree(tmp_path, ["LINT017"])
        assert [f.rule for f in findings] == ["LINT017"]
        assert "upward edge" in findings[0].message

    def test_positive_lazy_upward_import(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/errors.py": (
                    "def f():\n"
                    "    from repro.soc.a import X\n"
                    "    return X\n"
                ),
                "src/repro/soc/a.py": "X = 1\n",
            },
        )
        assert tree_rule_ids(tmp_path, ["LINT017"]) == ["LINT017"]

    def test_positive_import_cycle(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": "import repro.soc.b\n",
                "src/repro/soc/b.py": "import repro.soc.a\n",
            },
        )
        findings = lint_tree(tmp_path, ["LINT017"])
        assert [f.rule for f in findings] == ["LINT017", "LINT017"]
        assert all("import cycle" in f.message for f in findings)

    def test_negative_downward_import(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": "from repro.errors import X\n",
                "src/repro/errors.py": "X = 1\n",
            },
        )
        assert tree_rule_ids(tmp_path, ["LINT017"]) == []

    def test_negative_allow_listed_upward_import(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": "from repro.cli import main\n",
                "src/repro/cli.py": "def main():\n    return 0\n",
            },
        )
        assert tree_rule_ids(tmp_path, ["LINT017"]) == []

    def test_negative_no_contract_means_no_findings(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/errors.py": "from repro.soc.a import X\n",
                "src/repro/soc/a.py": "X = 1\n",
            },
            contract=None,
        )
        assert tree_rule_ids(tmp_path, ["LINT017"]) == []


class TestLint018DeadCode:
    def test_positive_unreferenced_function(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": (
                    "__all__ = ['keep']\n\n\n"
                    "def keep():\n    return 1\n\n\n"
                    "def drop():\n    return 2\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["LINT018"])
        assert [f.rule for f in findings] == ["LINT018"]
        assert "'drop'" in findings[0].message

    def test_positive_unreferenced_class(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": (
                    "__all__ = ['keep']\n\n\n"
                    "def keep():\n    return 1\n\n\n"
                    "class Orphan:\n    pass\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["LINT018"])
        assert len(findings) == 1 and "'Orphan'" in findings[0].message

    def test_positive_unreferenced_attribute(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": (
                    "__all__ = ['keep']\n\nLIMIT = 5\n\n\n"
                    "def keep():\n    return 1\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["LINT018"])
        assert len(findings) == 1 and "'LIMIT'" in findings[0].message

    def test_negative_reachable_through_entry_point(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cli.py": (
                    "from repro.soc.a import engine\n\n\n"
                    "def main():\n    return engine()\n"
                ),
                "src/repro/soc/a.py": "def engine():\n    return 1\n",
            },
        )
        assert tree_rule_ids(tmp_path, ["LINT018"]) == []

    def test_negative_referenced_by_external_test(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": "def probe():\n    return 1\n",
                "tests/test_a.py": (
                    "from repro.soc.a import probe\n\n\n"
                    "def test_probe():\n    assert probe() == 1\n"
                ),
            },
        )
        assert tree_rule_ids(tmp_path, ["LINT018"]) == []

    def test_negative_dunder_all_export(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/a.py": (
                    "__all__ = ['solo']\n\n\n"
                    "def solo():\n    return 1\n"
                ),
            },
        )
        assert tree_rule_ids(tmp_path, ["LINT018"]) == []


LINT019 = ["LINT019"]
SOC_PATH = "src/repro/soc/fixture.py"


def source_rule_ids(source: str, path: str = SOC_PATH, rules=LINT019):
    return [
        f.rule
        for f in lint_source(
            textwrap.dedent(source), path=path, rule_ids=rules
        )
    ]


class TestLint019ExceptionFlow:
    def test_positive_keyerror_escapes_public_function(self):
        src = """
        def lookup(table, key):
            if key not in table:
                raise KeyError(key)
            return table[key]
        """
        assert source_rule_ids(src) == ["LINT019"]

    def test_positive_escape_via_private_helper(self):
        src = """
        def _read(path):
            raise OSError(path)

        def load(path):
            return _read(path)
        """
        findings = lint_source(
            textwrap.dedent(src), path=SOC_PATH, rule_ids=LINT019
        )
        assert [f.rule for f in findings] == ["LINT019"]
        assert "raised in _read()" in findings[0].message

    def test_positive_silent_except_pass_in_model_code(self):
        src = """
        def update(state):
            try:
                state.advance()
            except Exception:
                pass
        """
        findings = lint_source(
            textwrap.dedent(src), path=SOC_PATH, rule_ids=LINT019
        )
        assert [f.rule for f in findings] == ["LINT019"]
        assert "silent except-pass" in findings[0].message

    def test_negative_repro_error_escape_is_sanctioned(self):
        src = """
        from repro.errors import SimulationError

        def solve(streams):
            if not streams:
                raise SimulationError("no streams")
            return streams[0]
        """
        assert source_rule_ids(src) == []

    def test_negative_absorbed_before_the_boundary(self):
        src = """
        def _read(path):
            raise OSError(path)

        def load(path):
            try:
                return _read(path)
            except OSError:
                return None
        """
        assert source_rule_ids(src) == []

    def test_negative_private_function_is_not_a_boundary(self):
        src = """
        def _lookup(table, key):
            raise KeyError(key)
        """
        assert source_rule_ids(src) == []

    def test_negative_notimplementederror_whitelisted(self):
        src = """
        class Scheduler:
            def select(self, queue):
                raise NotImplementedError
        """
        assert source_rule_ids(src) == []


class TestAcceptance:
    """The repo's own layer contract is load-bearing, edge by edge."""

    def real_graph(self):
        files = sorted(iter_python_files([str(PACKAGE_ROOT)]))
        return build_import_graph(
            [(str(f), f.read_text(encoding="utf-8")) for f in files]
        )

    def test_every_allow_edge_is_load_bearing(self):
        contract_path = find_contract(PACKAGE_ROOT)
        assert contract_path is not None
        contract = load_contract(contract_path)
        assert contract.allowed, "contract declares no exceptions?"
        graph = self.real_graph()
        assert layering_violations(graph, contract) == []
        for entry in contract.allowed:
            stripped = contract.without_allowed(entry.src, entry.dst)
            violations = layering_violations(graph, stripped)
            assert violations, (
                f"[[allow]] {entry.src} -> {entry.dst} is unused; "
                "delete it from architecture.toml"
            )
