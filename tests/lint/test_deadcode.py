"""Unit tests for dead-code reachability (repro.lint.deadcode)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.deadcode import build_deadcode_index
from repro.lint.importgraph import (
    CONTRACT_FILE_NAME,
    load_contract,
    parse_modules,
)

BASE_CONTRACT = """
[order]
sequence = ["core"]

[layers]
core = ["repro"]

[deadcode]
roots = ["tests"]
entry_points = ["repro.cli:main"]
"""


def index_of(*named_sources, contract=None, contract_path=None):
    return build_deadcode_index(
        parse_modules(
            [(path, textwrap.dedent(src)) for path, src in named_sources]
        ),
        contract,
        contract_path,
    )


def contract_in(tmp_path: Path, text: str = BASE_CONTRACT):
    path = tmp_path / CONTRACT_FILE_NAME
    path.write_text(textwrap.dedent(text))
    return load_contract(path), path


def dead_names(index, module):
    return [info.name for info in index.unreachable_in(module)]


class TestSymbolCollection:
    def test_functions_classes_and_attributes_are_symbols(self):
        src = """
        LIMIT = 10

        def helper():
            return LIMIT

        class Widget:
            pass
        """
        index = index_of(("src/repro/soc/a.py", src))
        kinds = {
            info.name: info.kind
            for info in index.symbols.values()
        }
        assert kinds == {
            "LIMIT": "attribute",
            "helper": "function",
            "Widget": "class",
        }

    def test_private_names_are_symbols_too(self):
        index = index_of(
            ("src/repro/soc/a.py", "def _quiet():\n    pass\n")
        )
        assert ("repro.soc.a", "_quiet") in index.symbols


class TestRoots:
    def test_all_exports_are_roots(self):
        src = """
        __all__ = ["keep"]

        def keep():
            pass

        def drop():
            pass
        """
        index = index_of(("src/repro/soc/a.py", src))
        assert dead_names(index, "repro.soc.a") == ["drop"]

    def test_init_reexports_are_roots(self):
        index = index_of(
            ("src/repro/soc/__init__.py", "from repro.soc.a import keep\n"),
            ("src/repro/soc/a.py", "def keep():\n    pass\n"),
        )
        assert dead_names(index, "repro.soc.a") == []

    def test_entry_points_root_their_call_chain(self, tmp_path):
        contract, path = contract_in(tmp_path)
        index = index_of(
            (
                "src/repro/cli.py",
                """
                def _helper():
                    pass

                def main():
                    _helper()
                """,
            ),
            contract=contract,
            contract_path=path,
        )
        assert dead_names(index, "repro.cli") == []

    def test_decorated_defs_are_roots(self):
        src = """
        def register(f):
            return f

        @register
        def plugin():
            pass
        """
        index = index_of(("src/repro/soc/a.py", src))
        assert "plugin" not in dead_names(index, "repro.soc.a")

    def test_external_test_tree_keeps_symbols_alive(self, tmp_path):
        contract, path = contract_in(tmp_path)
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_a.py").write_text(
            "from repro.soc.a import probe\n\n\n"
            "def test_probe():\n    assert probe() is None\n"
        )
        index = index_of(
            (
                "src/repro/soc/a.py",
                "def probe():\n    return None\n\n\ndef lonely():\n    pass\n",
            ),
            contract=contract,
            contract_path=path,
        )
        assert dead_names(index, "repro.soc.a") == ["lonely"]
        assert index.external_files  # scanned files feed the cache key


class TestReachability:
    def test_transitive_references_survive(self):
        src = """
        __all__ = ["top"]

        def top():
            return _mid()

        def _mid():
            return _leaf()

        def _leaf():
            return 1
        """
        index = index_of(("src/repro/soc/a.py", src))
        assert dead_names(index, "repro.soc.a") == []

    def test_dead_island_is_unreachable_even_if_self_referential(self):
        src = """
        __all__ = ["top"]

        def top():
            return 1

        def _ping():
            return _pong()

        def _pong():
            return _ping()
        """
        index = index_of(("src/repro/soc/a.py", src))
        assert dead_names(index, "repro.soc.a") == ["_ping", "_pong"]

    def test_cross_module_reference(self):
        index = index_of(
            (
                "src/repro/soc/a.py",
                "__all__ = ['run']\n\n"
                "from repro.soc.b import engine\n\n\n"
                "def run():\n    return engine()\n",
            ),
            ("src/repro/soc/b.py", "def engine():\n    return 1\n"),
        )
        assert dead_names(index, "repro.soc.b") == []

    def test_unused_from_import_does_not_keep_the_target_alive(self):
        # Binding without use: the import alone is not a reference.
        index = index_of(
            (
                "src/repro/soc/a.py",
                "__all__ = ['run']\n\n"
                "from repro.soc.b import engine\n\n\n"
                "def run():\n    return 1\n",
            ),
            ("src/repro/soc/b.py", "def engine():\n    return 1\n"),
        )
        assert dead_names(index, "repro.soc.b") == ["engine"]

    def test_dispatch_table_keeps_targets_alive_through_the_table(self):
        src = """
        __all__ = ["HANDLERS"]

        def on_start():
            pass

        HANDLERS = {"start": on_start}
        """
        index = index_of(("src/repro/soc/a.py", src))
        assert dead_names(index, "repro.soc.a") == []
