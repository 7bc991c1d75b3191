"""Content-hash keyed result cache for the lint engine.

Linting is pure: findings are a function of (file contents, rule set,
analyzer code). That makes results safely memoizable — a cache entry is
keyed by the sha256 of all three, so editing a source file, narrowing
``--rules``, or changing any module in the lint package itself all
invalidate exactly the entries they should, with no mtime heuristics.

Entries live as small JSON documents under ``.lint-cache/`` (one file
per key, sharded by the first two hex chars like git objects). The
cache is advisory: corrupt or unreadable entries count as misses and
are overwritten on the next store.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.base import Finding

CACHE_DIR_NAME = ".lint-cache"
CACHE_SCHEMA_VERSION = 1


def _analyzer_fingerprint() -> str:
    """sha256 over every source file of the lint package."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


class LintCache:
    """File-granular lint result cache under ``directory``."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self._fingerprint = _analyzer_fingerprint()

    def key_for(
        self,
        source: str,
        rule_ids: Optional[Sequence[str]],
        extra: str = "",
    ) -> str:
        """Cache key for one file's lint run (path-independent).

        ``extra`` folds additional invalidation context into the key —
        the engine passes the import-graph fingerprint when module-graph
        rules are selected, so a finding computed against one tree is
        never served against another.
        """
        digest = hashlib.sha256()
        digest.update(self._fingerprint.encode("utf-8"))
        rules_part = ",".join(rule_ids) if rule_ids is not None else "*"
        digest.update(rules_part.encode("utf-8"))
        digest.update(extra.encode("utf-8"))
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key[2:]}.json"

    def lookup(self, key: str, path: str) -> Optional[List[Finding]]:
        """Cached findings for ``key``, re-anchored to ``path``.

        The same content linted under two paths shares an entry only
        when no finding fired (path-sensitive rules see ``norm_path``),
        so entries record the display path they were produced under and
        only empty results are shared across paths.
        """
        entry = self._entry_path(key)
        try:
            payload = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_SCHEMA_VERSION
        ):
            self.misses += 1
            return None
        raw = payload.get("findings")
        recorded_path = payload.get("path")
        if not isinstance(raw, list) or (raw and recorded_path != path):
            self.misses += 1
            return None
        try:
            findings = [
                Finding(
                    file=item["file"],
                    line=int(item["line"]),
                    col=int(item["col"]),
                    rule=item["rule"],
                    message=item["message"],
                )
                for item in raw
            ]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def store(
        self, key: str, path: str, findings: Sequence[Finding]
    ) -> None:
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "path": path,
            "findings": [
                {
                    "file": f.file,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule,
                    "message": f.message,
                }
                for f in findings
            ],
        }
        tmp = entry.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(entry)


__all__ = [
    "CACHE_DIR_NAME",
    "CACHE_SCHEMA_VERSION",
    "LintCache",
]
