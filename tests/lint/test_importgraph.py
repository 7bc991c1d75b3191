"""Unit tests for the import-graph layer (repro.lint.importgraph)."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint.importgraph import (
    CONTRACT_FILE_NAME,
    build_import_graph,
    collect_imports,
    cycle_findings,
    find_contract,
    is_package_path,
    layering_violations,
    load_contract,
    module_name_for,
    parse_modules,
    parse_toml_subset,
    to_dot,
    to_json_payload,
)


def graph_of(*named_sources):
    return build_import_graph(
        parse_modules(
            [(path, textwrap.dedent(src)) for path, src in named_sources]
        )
    )


def edge_set(graph):
    return {(e.src, e.dst, e.kind) for e in graph.edges}


def contract_from(tmp_path: Path, text: str):
    path = tmp_path / CONTRACT_FILE_NAME
    path.write_text(textwrap.dedent(text))
    return load_contract(path)


SMALL_CONTRACT = """
[order]
sequence = ["core", "model", "cli"]

[layers]
core = ["repro.errors"]
model = ["repro.soc"]
cli = ["repro.cli"]
"""


class TestModuleNaming:
    def test_repro_paths_get_dotted_names(self):
        assert (
            module_name_for("src/repro/perf/jobs.py") == "repro.perf.jobs"
        )

    def test_init_collapses_to_the_package(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_fixture_paths_use_the_stem(self):
        assert module_name_for("/tmp/xyz/helper.py") == "helper"

    def test_only_a_repro_init_is_named_as_a_package(self):
        assert is_package_path("src/repro/obs/__init__.py")
        assert not is_package_path("src/repro/obs/runtime.py")
        assert not is_package_path("/tmp/xyz/__init__.py")


class TestCollectImports:
    def test_plain_aliased_and_from_imports(self):
        import ast

        tree = ast.parse(
            "import os\n"
            "import numpy as np\n"
            "from repro.obs import runtime as obs_runtime\n"
            "def f():\n"
            "    from repro.perf.pool import map_on_pool\n"
        )
        imports = collect_imports(tree, "repro.soc.engine")
        assert imports["os"] == "os"
        assert imports["np"] == "numpy"
        assert imports["obs_runtime"] == "repro.obs:runtime"
        # Function-local lazy imports are seen module-wide.
        assert imports["map_on_pool"] == "repro.perf.pool:map_on_pool"

    def test_relative_import_resolves_against_the_package(self):
        import ast

        tree = ast.parse("from . import spec\nfrom .configs import soc\n")
        imports = collect_imports(tree, "repro.soc.engine")
        assert imports["spec"] == "repro.soc:spec"
        assert imports["soc"] == "repro.soc.configs:soc"

    def test_relative_import_in_a_package_init_starts_at_the_package(self):
        import ast

        tree = ast.parse("from . import runtime\nfrom .. import errors\n")
        assert collect_imports(tree, "repro.obs", is_package=True) == {
            "runtime": "repro.obs:runtime",
            "errors": "repro:errors",
        }
        # The same lines in a plain module repro/obs.py.
        assert collect_imports(tree, "repro.obs") == {
            "runtime": "repro:runtime",
        }


class TestEdgeKinds:
    def test_toplevel_import_is_a_top_edge(self):
        graph = graph_of(
            ("src/repro/soc/a.py", "import repro.errors\n")
        )
        assert ("repro.soc.a", "repro.errors", "top") in edge_set(graph)

    def test_from_import_targets_the_package(self):
        graph = graph_of(
            ("src/repro/soc/a.py", "from repro.errors import LintError\n")
        )
        assert ("repro.soc.a", "repro.errors", "top") in edge_set(graph)

    def test_from_import_of_a_linted_submodule_adds_both_edges(self):
        graph = graph_of(
            ("src/repro/soc/__init__.py", ""),
            ("src/repro/soc/b.py", "X = 1\n"),
            ("src/repro/cli.py", "from repro.soc import b\n"),
        )
        edges = edge_set(graph)
        assert ("repro.cli", "repro.soc", "top") in edges
        assert ("repro.cli", "repro.soc.b", "top") in edges

    def test_function_local_import_is_lazy(self):
        src = """
        def f():
            import repro.errors
            return repro.errors
        """
        graph = graph_of(("src/repro/soc/a.py", src))
        assert ("repro.soc.a", "repro.errors", "lazy") in edge_set(graph)

    def test_type_checking_import_is_typing(self):
        src = """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.cli import main
        """
        graph = graph_of(("src/repro/soc/a.py", src))
        assert ("repro.soc.a", "repro.cli", "typing") in edge_set(graph)

    def test_relative_import_resolves_against_the_package(self):
        graph = graph_of(
            ("src/repro/soc/__init__.py", ""),
            ("src/repro/soc/b.py", "X = 1\n"),
            ("src/repro/soc/a.py", "from . import b\n"),
        )
        assert ("repro.soc.a", "repro.soc.b", "top") in edge_set(graph)

    def test_relative_import_in_a_package_init_targets_its_submodule(self):
        graph = graph_of(
            ("src/repro/obs/__init__.py", "from . import runtime\n"),
            ("src/repro/obs/runtime.py", "X = 1\n"),
        )
        edges = edge_set(graph)
        assert ("repro.obs", "repro.obs.runtime", "top") in edges
        assert ("repro.obs", "repro", "top") not in edges

    def test_syntax_error_file_is_skipped(self):
        graph = graph_of(("src/repro/soc/a.py", "def broken(:\n"))
        assert "repro.soc.a" not in graph.modules


class TestCycles:
    def test_two_module_top_cycle_detected(self):
        graph = graph_of(
            ("src/repro/soc/b.py", "import repro.soc.a\n"),
            ("src/repro/soc/a.py", "import repro.soc.b\n"),
        )
        assert graph.cycles() == [("repro.soc.a", "repro.soc.b")]

    def test_cycle_rotated_to_smallest_member(self):
        graph = graph_of(
            ("src/repro/soc/c.py", "import repro.soc.a\n"),
            ("src/repro/soc/a.py", "import repro.soc.b\n"),
            ("src/repro/soc/b.py", "import repro.soc.c\n"),
        )
        cycles = graph.cycles()
        assert len(cycles) == 1
        assert cycles[0][0] == "repro.soc.a"
        assert set(cycles[0]) == {
            "repro.soc.a",
            "repro.soc.b",
            "repro.soc.c",
        }

    def test_lazy_backedge_breaks_the_cycle(self):
        src_b = """
        def f():
            import repro.soc.a
        """
        graph = graph_of(
            ("src/repro/soc/a.py", "import repro.soc.b\n"),
            ("src/repro/soc/b.py", src_b),
        )
        assert graph.cycles() == []

    def test_cycle_findings_name_every_member(self):
        graph = graph_of(
            ("src/repro/soc/a.py", "import repro.soc.b\n"),
            ("src/repro/soc/b.py", "import repro.soc.a\n"),
        )
        findings = cycle_findings(graph)
        assert {module for module, _, _ in findings} == {
            "repro.soc.a",
            "repro.soc.b",
        }
        assert all("import cycle" in message for _, _, message in findings)


class TestTomlSubset:
    def test_tables_arrays_and_strings(self):
        data = parse_toml_subset(
            textwrap.dedent(
                """
                # comment
                [order]
                sequence = ["a", "b"]

                [layers]
                a = ["pkg.a"]
                b = [
                    "pkg.b",
                    "pkg.c",
                ]
                """
            )
        )
        assert data["order"] == {"sequence": ["a", "b"]}
        assert data["layers"]["b"] == ["pkg.b", "pkg.c"]

    def test_array_of_tables(self):
        data = parse_toml_subset(
            textwrap.dedent(
                """
                [[allow]]
                from = "x"
                to = "y"
                reason = "because"

                [[allow]]
                from = "y"
                to = "z"
                reason = "also"
                """
            )
        )
        assert [entry["from"] for entry in data["allow"]] == ["x", "y"]

    def test_unsupported_value_raises_linterror(self):
        with pytest.raises(LintError):
            parse_toml_subset("[t]\nx = 1\n")


class TestContractValidation:
    def test_round_trip(self, tmp_path):
        contract = contract_from(
            tmp_path,
            """
            [order]
            sequence = ["core", "cli"]

            [layers]
            core = ["repro.errors"]
            cli = ["repro.cli"]

            [[allow]]
            from = "repro.errors"
            to = "repro.cli"
            reason = "fixture"

            [deadcode]
            roots = ["tests"]
            entry_points = ["repro.cli:main"]
            """,
        )
        assert contract.layers == (
            ("core", ("repro.errors",)),
            ("cli", ("repro.cli",)),
        )
        assert contract.allowed[0].reason == "fixture"
        assert contract.deadcode_roots == ("tests",)
        assert contract.entry_points == ("repro.cli:main",)

    def test_missing_order_sequence(self, tmp_path):
        with pytest.raises(LintError):
            contract_from(tmp_path, '[layers]\ncore = ["repro.errors"]\n')

    def test_sequence_names_undeclared_layer(self, tmp_path):
        with pytest.raises(LintError):
            contract_from(
                tmp_path,
                '[order]\nsequence = ["core", "ghost"]\n'
                '\n[layers]\ncore = ["repro.errors"]\n',
            )

    def test_layer_missing_from_sequence(self, tmp_path):
        with pytest.raises(LintError):
            contract_from(
                tmp_path,
                '[order]\nsequence = ["core"]\n\n[layers]\n'
                'core = ["repro.errors"]\nextra = ["repro.cli"]\n',
            )

    def test_package_in_two_layers(self, tmp_path):
        with pytest.raises(LintError):
            contract_from(
                tmp_path,
                '[order]\nsequence = ["a", "b"]\n\n[layers]\n'
                'a = ["repro.soc"]\nb = ["repro.soc"]\n',
            )

    def test_allow_requires_a_reason(self, tmp_path):
        with pytest.raises(LintError):
            contract_from(
                tmp_path,
                SMALL_CONTRACT
                + '\n[[allow]]\nfrom = "repro.errors"\nto = "repro.cli"\n',
            )

    def test_allow_rejects_unknown_package(self, tmp_path):
        with pytest.raises(LintError):
            contract_from(
                tmp_path,
                SMALL_CONTRACT
                + '\n[[allow]]\nfrom = "repro.ghost"\n'
                'to = "repro.cli"\nreason = "nope"\n',
            )


class TestContractSemantics:
    def test_package_for_prefers_the_longest_prefix(self, tmp_path):
        contract = contract_from(
            tmp_path,
            '[order]\nsequence = ["a", "b"]\n\n[layers]\n'
            'a = ["repro.soc"]\nb = ["repro"]\n',
        )
        assert contract.package_for("repro.soc.engine") == "repro.soc"
        assert contract.package_for("repro.cli") == "repro"
        assert contract.package_for("numpy") is None

    def test_allows_directions(self, tmp_path):
        contract = contract_from(tmp_path, SMALL_CONTRACT)
        # Downward and same-package edges are free.
        assert contract.allows("repro.cli", "repro.soc")
        assert contract.allows("repro.soc", "repro.soc")
        # Upward edges need an [[allow]] declaration.
        assert not contract.allows("repro.errors", "repro.cli")
        # Unmapped packages are out of contract scope.
        assert contract.allows("numpy", "repro.cli")

    def test_without_allowed_drops_one_entry(self, tmp_path):
        contract = contract_from(
            tmp_path,
            SMALL_CONTRACT
            + '\n[[allow]]\nfrom = "repro.soc"\nto = "repro.cli"\n'
            'reason = "fixture"\n',
        )
        assert contract.allows("repro.soc", "repro.cli")
        stripped = contract.without_allowed("repro.soc", "repro.cli")
        assert not stripped.allows("repro.soc", "repro.cli")


class TestDiscovery:
    def test_find_contract_walks_up(self, tmp_path):
        (tmp_path / CONTRACT_FILE_NAME).write_text("[order]\nsequence = []\n")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        assert find_contract(nested) == tmp_path / CONTRACT_FILE_NAME

    def test_find_contract_prefers_the_nearest(self, tmp_path):
        (tmp_path / CONTRACT_FILE_NAME).write_text("x")
        nested = tmp_path / "sub"
        nested.mkdir()
        (nested / CONTRACT_FILE_NAME).write_text("y")
        assert find_contract(nested) == nested / CONTRACT_FILE_NAME


class TestLayeringViolations:
    def test_upward_edge_flagged(self, tmp_path):
        contract = contract_from(tmp_path, SMALL_CONTRACT)
        graph = graph_of(
            ("src/repro/soc/a.py", "from repro.cli import main\n")
        )
        violations = layering_violations(graph, contract)
        assert len(violations) == 1
        module, line, message = violations[0]
        assert module == "repro.soc.a"
        assert "upward edge" in message

    def test_lazy_upward_edge_still_flagged(self, tmp_path):
        contract = contract_from(tmp_path, SMALL_CONTRACT)
        src = """
        def f():
            from repro.cli import main
            return main
        """
        graph = graph_of(("src/repro/soc/a.py", src))
        assert len(layering_violations(graph, contract)) == 1

    def test_typing_upward_edge_exempt(self, tmp_path):
        contract = contract_from(tmp_path, SMALL_CONTRACT)
        src = """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.cli import main
        """
        graph = graph_of(("src/repro/soc/a.py", src))
        assert layering_violations(graph, contract) == []

    def test_allowed_edge_passes(self, tmp_path):
        contract = contract_from(
            tmp_path,
            SMALL_CONTRACT
            + '\n[[allow]]\nfrom = "repro.soc"\nto = "repro.cli"\n'
            'reason = "fixture"\n',
        )
        graph = graph_of(
            ("src/repro/soc/a.py", "from repro.cli import main\n")
        )
        assert layering_violations(graph, contract) == []


class TestExports:
    def test_dot_package_mode_clusters_layers(self, tmp_path):
        contract = contract_from(tmp_path, SMALL_CONTRACT)
        graph = graph_of(
            ("src/repro/cli.py", "import repro.soc.a\n"),
            ("src/repro/soc/a.py", "import repro.errors\n"),
        )
        dot = to_dot(graph, contract)
        assert "digraph imports" in dot
        assert "cluster_core" in dot
        assert '"repro.cli" -> "repro.soc"' in dot

    def test_dot_module_mode_lists_modules(self, tmp_path):
        contract = contract_from(tmp_path, SMALL_CONTRACT)
        graph = graph_of(
            ("src/repro/soc/a.py", "import repro.soc.b\n"),
            ("src/repro/soc/b.py", "X = 1\n"),
        )
        dot = to_dot(graph, contract, modules=True)
        assert '"repro.soc.a" -> "repro.soc.b"' in dot

    def test_json_payload_shape(self, tmp_path):
        contract = contract_from(tmp_path, SMALL_CONTRACT)
        graph = graph_of(
            ("src/repro/soc/a.py", "import repro.errors\n")
        )
        payload = to_json_payload(graph, contract)
        assert payload["modules"] == {"repro.soc.a": "src/repro/soc/a.py"}
        assert payload["edges"][0]["dst"] == "repro.errors"
        assert payload["cycles"] == []
        assert "layers" in payload and "allowed" in payload
