"""TP/TN fixtures for the architecture rules (LINT017-018) and the
exception-discipline rules (LINT007 at each raise, LINT019's silent
except-pass), plus the mechanized acceptance check that every
``[[allow]]`` entry in the real ``architecture.toml`` is load-bearing.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

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
from repro.lint.rules import ALL_RULE_IDS, RULES_BY_ID, explain_rule

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
        module_graph = {
            rule_id
            for rule_id, rule in RULES_BY_ID.items()
            if rule.module_graph
        }
        assert module_graph == {"LINT017", "LINT018"}
        # Every other rule reads only the file it reports on.
        for rule_id in sorted(set(ALL_RULE_IDS) - module_graph):
            assert "Scope: single file." in explain_rule(rule_id)


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


LAZY_INIT = """
def __getattr__(name):
    raise AttributeError(name)


_LAZY_EXPORTS = {
    "repro.soc.a": ("engine",),
    "repro.soc.b": ("Widget",),%s
}
"""
LAZY_MODULES = {
    "src/repro/soc/a.py": "def engine():\n    return 1\n\n\ndef drop():\n"
    "    return 2\n",
    "src/repro/soc/b.py": "class Widget:\n    pass\n\n\nclass Gadget:\n"
    "    pass\n",
    # Binds Gadget by a top-level import and Widget only inside a
    # function: neither is a definition of ``repro.soc.c``.
    "src/repro/soc/c.py": "from repro.soc.b import Gadget\n\n\n"
    "def late():\n    from repro.soc.b import Widget\n\n"
    "    return Widget, Gadget\n",
}


class TestLint018LazyExports:
    """A PEP 562 ``_LAZY_EXPORTS`` table roots the definitions it names,
    and an entry that names no top-level definition of its module is a
    finding."""

    def lint_lazy(self, tmp_path, extra=""):
        write_tree(
            tmp_path,
            {"src/repro/soc/__init__.py": LAZY_INIT % extra, **LAZY_MODULES},
        )
        return [
            (Path(f.file).name, f.line, f.message)
            for f in lint_tree(tmp_path, ["LINT018"])
        ]

    def test_negative_entries_root_their_definitions(self, tmp_path):
        findings = self.lint_lazy(tmp_path)
        assert [(name, msg.split(" is ")[0]) for name, _, msg in findings] == [
            ("a.py", "function 'drop'"),
            ("b.py", "class 'Gadget'"),
            ("c.py", "function 'late'"),
        ]

    @pytest.mark.parametrize(
        "name",
        [
            "Gizmo",  # bound nowhere
            "Widget",  # imported only inside a function
            "Gadget",  # imported at top level, defined in repro.soc.b
        ],
    )
    def test_positive_name_its_module_does_not_define(self, tmp_path, name):
        findings = self.lint_lazy(
            tmp_path, '\n    "repro.soc.c": ("%s",),' % name
        )
        assert (
            "__init__.py",
            9,
            f"lazy export {name!r} is not defined at top level in "
            "'repro.soc.c'",
        ) in findings

    def test_positive_missing_module(self, tmp_path):
        findings = self.lint_lazy(
            tmp_path, '\n    "repro.soc.d": ("Widget",),'
        )
        assert (
            "__init__.py",
            9,
            "lazy export 'Widget' names module 'repro.soc.d', which is "
            "not in the linted tree",
        ) in findings

    def test_positive_table_that_is_not_a_literal(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/soc/__init__.py": (
                    "_LAZY_EXPORTS = dict(engine='repro.soc.a')\n"
                ),
                "src/repro/soc/a.py": "def engine():\n    return 1\n",
            },
        )
        messages = [f.message for f in lint_tree(tmp_path, ["LINT018"])]
        assert "_LAZY_EXPORTS must be a dict literal" in messages


EXCEPTION_RULES = ["LINT007", "LINT019"]
SOC_PATH = "src/repro/soc/fixture.py"


def source_findings(source: str, path: str = SOC_PATH):
    return [
        (f.rule, f.line)
        for f in lint_source(
            textwrap.dedent(source), path=path, rule_ids=EXCEPTION_RULES
        )
    ]


class TestLint019ExceptionFlow:
    """The exception discipline: LINT007 checks the class each raise
    names, where it stands; LINT019 flags a silent except-pass in
    model code. Fixture lines count from the dedented source's blank
    first line."""

    def test_positive_keyerror_escapes_public_function(self):
        src = """
        def lookup(table, key):
            if key not in table:
                raise KeyError(key)
            return table[key]
        """
        assert source_findings(src) == [("LINT007", 4)]

    def test_positive_escape_via_private_helper(self):
        src = """
        def _read(path):
            raise OSError(path)

        def load(path):
            return _read(path)
        """
        findings = lint_source(
            textwrap.dedent(src), path=SOC_PATH, rule_ids=EXCEPTION_RULES
        )
        assert [(f.rule, f.line) for f in findings] == [("LINT007", 3)]
        assert "raise OSError bypasses" in findings[0].message

    def test_positive_silent_except_pass_in_model_code(self):
        src = """
        def update(state):
            try:
                state.advance()
            except Exception:
                pass
        """
        findings = lint_source(
            textwrap.dedent(src), path=SOC_PATH, rule_ids=EXCEPTION_RULES
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
        assert source_findings(src) == []

    def test_positive_raise_absorbed_before_the_boundary(self):
        """A builtin its public caller catches is still a finding: the
        check is at the raise, not at the boundary."""
        src = """
        def _read(path):
            raise OSError(path)

        def load(path):
            try:
                return _read(path)
            except OSError:
                return None
        """
        assert source_findings(src) == [("LINT007", 3)]

    def test_positive_private_function_raise(self):
        src = """
        def _lookup(table, key):
            raise KeyError(key)
        """
        assert source_findings(src) == [("LINT007", 3)]

    def test_negative_notimplementederror_whitelisted(self):
        src = """
        class Scheduler:
            def select(self, queue):
                raise NotImplementedError
        """
        assert source_findings(src) == []


class TestSharedImportTables:
    """LINT007, LINT011 and the dead-code index resolve names through
    one import table per file, built once per lint run."""

    FILES = {
        "src/repro/soc/__init__.py": "from . import a\n",
        "src/repro/soc/a.py": """\
            import random
            from json import JSONDecodeError


            def f():
                if random.random() > 2:
                    raise JSONDecodeError("x", "", 0)
            """,
        "src/repro/cli.py": """\
            from repro.soc import a


            def main():
                return a.f()
            """,
    }

    @pytest.mark.parametrize(
        "rules", [None, ["LINT007", "LINT011"]], ids=["all", "single-file"]
    )
    def test_each_table_is_built_once(self, tmp_path, monkeypatch, rules):
        from repro.lint import deadcode, engine, importgraph, rules as checks

        built = []
        original = importgraph.collect_imports

        def counting(tree, name, is_package=False):
            built.append(name)
            return original(tree, name, is_package)

        for module in (engine, deadcode, checks):
            monkeypatch.setattr(
                module, "collect_imports", counting, raising=False
            )
        write_tree(tmp_path, self.FILES)
        findings = lint_tree(tmp_path, rules)
        assert sorted(built) == ["repro.cli", "repro.soc", "repro.soc.a"]
        # Both rules still resolve names through the shared table.
        assert [(f.rule, Path(f.file).name, f.line) for f in findings] == [
            ("LINT011", "a.py", 6),
            ("LINT007", "a.py", 7),
        ]


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
