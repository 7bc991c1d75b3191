"""What importing ``repro`` loads, and the lazy package namespaces.

``repro``, ``repro.obs`` and ``repro.perf`` bind their re-exported names
on first access (PEP 562), so a run imports only the modules it uses.
The closure tests run each command in a fresh interpreter under
``-X importtime`` (or, for a run, read ``sys.modules`` after it) and
compare module sets, not times.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

LAZY_PACKAGES = ("repro", "repro.obs", "repro.perf")

#: What the §2.3 DRAM study never uses: the SoC model and its
#: calibration, the worker pool, the sim cache and the trace exporters.
DRAM_STUDY_UNUSED = (
    "repro.soc",
    "repro.core",
    "repro.workloads",
    "repro.profiling",
    "repro.baselines",
    "repro.perf.pool",
    "repro.perf.jobs",
    "repro.perf.executor",
    "repro.perf.simcache",
    "repro.obs.export",
    "repro.obs.stitch",
    "repro.obs.manifest",
    "multiprocessing",
    "concurrent.futures",
)


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )


def imported_modules(*args: str) -> set:
    """Every module a fresh ``python -X importtime <args>`` imports."""
    done = _fresh("-X", "importtime", *args)
    return {
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }


def loaded_after(code: str) -> set:
    """Every module in ``sys.modules`` after a fresh interpreter runs
    ``code``, including those a lazy namespace loaded through
    ``importlib.import_module``, which ``-X importtime`` does not log."""
    done = _fresh("-c", f"{code}\nimport sys\nprint(*sys.modules)")
    return set(done.stdout.split())


def under(modules: set, prefixes) -> list:
    return sorted(
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


class TestImportClosure:
    def test_dram_study_loads_only_what_it_runs(self):
        modules = imported_modules(
            "-c", "import repro.experiments.fig5_table3"
        )
        assert "repro.dram.system" in modules
        assert under(modules, DRAM_STUDY_UNUSED) == []

    def test_dram_study_runs_without_soc_or_pool(self):
        """A run at the default of one worker maps its simulations
        through ``parallel_map``'s serial loop: the pool, the SoC model
        and the process machinery stay unloaded."""
        modules = loaded_after(
            "from repro.experiments.fig5_table3 import run_fig5_table3\n"
            "run_fig5_table3(victim_demands=(90.0,), pressure_levels=(30.0,),"
            " requests=20, policies=('fcfs',))"
        )
        assert {"repro.perf.executor", "repro.perf.jobs"} <= modules
        assert under(
            modules,
            (
                "repro.soc",
                "repro.core",
                "repro.workloads",
                "repro.profiling",
                "repro.baselines",
                "repro.perf.pool",
                "multiprocessing",
                "concurrent.futures",
            ),
        ) == []

    def test_import_repro_loads_no_other_repro_module(self):
        assert under(imported_modules("-c", "import repro"), ("repro",)) == [
            "repro"
        ]

    def test_cli_help_loads_no_model(self):
        modules = imported_modules("-m", "repro.cli", "--help")
        assert "repro.analysis.tables" in modules
        assert under(
            modules,
            ("repro.soc", "repro.dram", "repro.core", "repro.workloads"),
        ) == []

    def test_submodule_import_through_a_lazy_package(self):
        modules = imported_modules(
            "-c",
            "from repro.obs import runtime; from repro.perf import timing; "
            "runtime.active(); timing.Stopwatch()",
        )
        assert {"repro.obs.runtime", "repro.perf.timing"} <= modules
        assert under(modules, DRAM_STUDY_UNUSED) == []

    def test_no_package_init_imports_another_sub_package(self):
        """The rule that keeps the closures small (DESIGN §2.14): at
        import time no package ``__init__`` imports from a sub-package
        of ``repro`` other than its own; ``repro``'s own imports none."""
        root = SRC / "repro"
        found = []
        for init in sorted(root.rglob("__init__.py")):
            package = init.parent.relative_to(root).parts[:1]
            for node in ast.parse(init.read_text()).body:
                if isinstance(node, ast.ImportFrom) and node.module:
                    targets = [node.module]
                elif isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                else:
                    continue
                for target in targets:
                    parts = target.split(".")
                    if parts[0] != "repro" or len(parts) < 2:
                        continue
                    sub_package = (root / parts[1] / "__init__.py").is_file()
                    if sub_package and (parts[1],) != package:
                        found.append(f"{init.relative_to(SRC)}: {target}")
        assert found == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyNamespace:
    def test_every_export_is_its_definition(self, name):
        package = importlib.import_module(name)
        exported = []
        for module_name, names in package._LAZY_EXPORTS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                value = getattr(package, attr)
                assert value is getattr(module, attr)
                assert getattr(value, "__module__", module_name) == module_name
                exported.append(attr)
        assert sorted(set(package.__all__) - {"__version__"}) == sorted(
            exported
        )

    def test_type_checking_block_mirrors_the_table(self, name):
        """Type checkers read the ``if TYPE_CHECKING:`` imports, the
        runtime reads ``_LAZY_EXPORTS``: both must name the same things,
        each re-exported as ``X as X`` (mypy --strict's explicit form)."""
        package = importlib.import_module(name)
        tree = ast.parse(Path(package.__file__).read_text())
        (block,) = [
            node
            for node in tree.body
            if isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ]
        imported = {}
        for node in block.body:
            assert isinstance(node, ast.ImportFrom)
            assert all(alias.asname == alias.name for alias in node.names)
            imported[node.module] = tuple(alias.name for alias in node.names)
        assert imported == package._LAZY_EXPORTS

    def test_dir_lists_all(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        for attr in package.__all__:
            assert namespace[attr] is getattr(package, attr)

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            package.nope
        assert not hasattr(package, "nope")

