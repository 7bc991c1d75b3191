"""The per-run architecture context behind LINT017/018.

Built once per :func:`repro.lint.engine.lint_files` run whenever a
module-graph rule is selected, and handed to every checker through
:class:`~repro.lint.base.FileContext`:

- the :class:`~repro.lint.importgraph.ImportGraph` over the linted
  sources;
- the nearest ``architecture.toml`` above the linted files (layer DAG,
  allowed exceptions, dead-code roots) — absent contract means the
  layering and dead-code rules stay silent, so fixture trees and
  third-party checkouts produce no noise until they *declare* an
  architecture;
- the dead-code index, including references harvested from the
  contract's external root trees (``tests/`` etc.).

``fingerprint`` folds all of that — sources, contract bytes, and every
scanned external file — into the per-file result cache key, so editing
a test that was the last reference to a helper correctly invalidates
the helper's cached findings.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.deadcode import DeadCodeIndex, build_deadcode_index
from repro.lint.importgraph import (
    ImportGraph,
    LayerContract,
    build_import_graph,
    cycle_findings,
    find_contract,
    graph_fingerprint,
    layering_violations,
    load_contract,
    parse_modules,
)


@dataclass
class ArchContext:
    """Everything the module-graph rules may know about one lint run."""

    graph: ImportGraph
    contract: Optional[LayerContract]
    contract_path: Optional[Path]
    deadcode: Optional[DeadCodeIndex]
    fingerprint: str
    #: Each linted module's tree, by module name: the one parse of the
    #: file that the graph, the dead-code index and the rules share.
    trees: Dict[str, ast.Module] = field(default_factory=dict)
    _module_by_path: Optional[Dict[str, str]] = None
    _contract_findings: Optional[Dict[str, List[Tuple[int, str]]]] = None

    def module_for_path(self, path: str) -> Optional[str]:
        """Linted module name for a source path (memoized lookup)."""
        if self._module_by_path is None:
            self._module_by_path = {
                Path(module_path).as_posix(): name
                for name, module_path in self.graph.modules.items()
            }
        return self._module_by_path.get(Path(path).as_posix())

    def tree_for(self, path: str) -> Optional[ast.Module]:
        """The tree the run parsed for ``path``; None when it did not
        parse the file under this path (or the file does not parse)."""
        module = self.module_for_path(path)
        return None if module is None else self.trees.get(module)

    def imports_for(self, path: str) -> Optional[Dict[str, str]]:
        """The import table the dead-code index built for ``path``.

        None when the run has no dead-code index (no contract) or did
        not index the file under this path.
        """
        if self.deadcode is None:
            return None
        module = self.module_for_path(path)
        return None if module is None else self.deadcode.imports.get(module)

    def contract_findings(self) -> Dict[str, List[Tuple[int, str]]]:
        """module -> (line, message) layering + cycle findings.

        The whole-graph scans run once per context, not once per file —
        LINT017's checker filters this map down to its own module.
        """
        if self._contract_findings is None:
            out: Dict[str, List[Tuple[int, str]]] = {}
            if self.contract is not None:
                for mod, line, message in layering_violations(
                    self.graph, self.contract
                ):
                    out.setdefault(mod, []).append((line, message))
                for mod, line, message in cycle_findings(self.graph):
                    out.setdefault(mod, []).append((line, message))
            self._contract_findings = out
        return self._contract_findings


def _discovery_start(
    sources: Sequence[Tuple[str, str]]
) -> Optional[Path]:
    for path, _ in sources:
        candidate = Path(path)
        if candidate.is_file():
            return candidate.resolve().parent
    return None


def build_arch_context(
    sources: Sequence[Tuple[str, str]]
) -> ArchContext:
    """Graph + discovered declarations over ``(path, source)`` pairs.

    Discovery walks up from the first on-disk source file; a run over
    in-memory sources only (``lint_source``) finds no declarations and
    the declaration-driven rules stay silent.
    """
    modules = parse_modules(sources)
    graph = build_import_graph(modules)
    start = _discovery_start(sources)

    contract: Optional[LayerContract] = None
    contract_path: Optional[Path] = None
    if start is not None:
        contract_path = find_contract(start)
        if contract_path is not None:
            contract = load_contract(contract_path)

    deadcode: Optional[DeadCodeIndex] = None
    if contract is not None:
        deadcode = build_deadcode_index(modules, contract, contract_path)

    digest = hashlib.sha256()
    digest.update(graph_fingerprint(sources).encode("utf-8"))
    if contract_path is None:
        digest.update(b"none")
    else:
        digest.update(contract_path.read_bytes())
    if deadcode is not None:
        for path, sha in sorted(deadcode.external_files):
            digest.update(path.encode("utf-8"))
            digest.update(sha.encode("utf-8"))

    return ArchContext(
        graph=graph,
        contract=contract,
        contract_path=contract_path,
        deadcode=deadcode,
        fingerprint=digest.hexdigest(),
        trees={module.name: module.tree for module in modules},
    )


__all__ = ["ArchContext", "build_arch_context"]
