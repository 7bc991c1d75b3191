"""Every obs-guarded branch in model code runs in the traced scenarios.

The traced == untraced contract is checked by running it: the
``repro.lint.determinism`` scenarios run untraced and under a
trace+metrics session, and ``tests/lint/test_determinism.py`` and
``tests/obs/test_bit_identity.py`` require the same bytes. That check
is only as strong as the branches the scenarios reach: a model write
under an ``if trace_on:`` that no scenario executes changes no output.

This test finds, by AST, every ``if`` in a ``repro.soc``,
``repro.dram`` or ``repro.core`` module that imports ``repro.obs``
whose test reads ``.enabled`` or a local bound from it (``trace_on =
tracer.enabled``, ``observing = trace_on or metrics_on``), and requires
the traced scenarios to execute the first line of each one's body.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path
from typing import List, NamedTuple, Set, Tuple

import pytest

import repro
from repro.lint.determinism import SCENARIOS, run_scenario

SRC = Path(repro.__file__).parent
MODEL_PACKAGES = ("soc", "dram", "core")
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class Branch(NamedTuple):
    path: str
    """Path relative to the ``repro`` package, e.g. ``soc/engine.py``."""

    module: str
    if_line: int
    body_line: int


def _imports_obs(tree: ast.Module) -> bool:
    """``from repro.obs[...] import x`` or ``import repro.obs[...]``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
    return any(name.split(".")[:2] == ["repro", "obs"] for name in names)


def _is_flag(expr: ast.expr, flags: Set[str]) -> bool:
    """``x.enabled``, a flag local, or ``and``/``or``/``not`` of them."""
    if isinstance(expr, ast.Attribute):
        return expr.attr == "enabled"
    if isinstance(expr, ast.Name):
        return expr.id in flags
    if isinstance(expr, ast.BoolOp):
        return any(_is_flag(value, flags) for value in expr.values)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        return _is_flag(expr.operand, flags)
    return False


def _reads_flag(expr: ast.expr, flags: Set[str]) -> bool:
    return any(
        (isinstance(node, ast.Attribute) and node.attr == "enabled")
        or (isinstance(node, ast.Name) and node.id in flags)
        for node in ast.walk(expr)
    )


def _flag_locals(func: ast.AST) -> Set[str]:
    """Names a function binds from ``.enabled`` or from another flag."""
    flags: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or not _is_flag(
                node.value, flags
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in flags:
                    flags.add(target.id)
                    changed = True
    return flags


def guarded_branches() -> List[Branch]:
    """Every obs-guarded ``if`` in the model packages, in file order."""
    found: Set[Branch] = set()
    for package in MODEL_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if not _imports_obs(tree):
                continue
            relative = path.relative_to(SRC).as_posix()
            module = "repro." + relative[: -len(".py")].replace("/", ".")
            for func in ast.walk(tree):
                if not isinstance(func, _FUNCTION_NODES):
                    continue
                flags = _flag_locals(func)
                for node in ast.walk(func):
                    if isinstance(node, ast.If) and _reads_flag(
                        node.test, flags
                    ):
                        found.add(
                            Branch(
                                relative,
                                module,
                                node.lineno,
                                node.body[0].lineno,
                            )
                        )
    return sorted(found)


BRANCHES = guarded_branches()


@pytest.fixture(scope="module")
def executed() -> Set[Tuple[str, int]]:
    """(file, line) of every line the traced scenarios ran in the
    modules that hold a guarded branch."""
    files = {
        importlib.import_module(module).__file__
        for module in {branch.module for branch in BRANCHES}
    }
    lines: Set[Tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    for scenario in SCENARIOS:
        sys.settrace(on_call)
        try:
            run_scenario(scenario, traced=True)
        finally:
            sys.settrace(previous)
    return lines


def test_discovery_finds_branches_in_both_simulators():
    """The scan itself works: both simulators' guarded emissions are
    found, so the parametrized check below cannot pass vacuously."""
    modules = {branch.path for branch in BRANCHES}
    assert {"soc/engine.py", "dram/system.py"} <= modules


@pytest.mark.parametrize(
    "branch",
    BRANCHES,
    ids=[f"{branch.path}:{branch.if_line}" for branch in BRANCHES],
)
def test_traced_scenarios_run_every_guarded_branch(branch, executed):
    filename = importlib.import_module(branch.module).__file__
    ran = (filename, branch.body_line) in executed
    assert ran, (
        f"no traced scenario enters the obs-guarded branch at "
        f"{branch.path}:{branch.if_line} (body line {branch.body_line}); "
        "extend repro.lint.determinism so it does"
    )
