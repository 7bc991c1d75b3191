"""Finding renderers: text lines, versioned JSON, and SARIF 2.1.0.

The SARIF document is what CI uploads (``github/codeql-action/
upload-sarif``) so findings annotate pull-request diffs as code-scanning
alerts. The rule metadata embedded in ``tool.driver.rules`` is the same
registry ``--list-rules`` prints and the same docstrings ``--explain``
shows — one source of truth, three views.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.lint.rules import Finding, explain_rule, rule_table

JSON_SCHEMA_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)


def render_text(findings: Sequence[Finding]) -> str:
    """``file:line:col: RULE message`` lines plus a summary tail."""
    lines = [
        f"{f.file}:{f.line}:{f.col}: {f.rule} {f.message}"
        for f in findings
    ]
    count = len(findings)
    if count == 0:
        lines.append("clean: no findings")
    else:
        noun = "finding" if count == 1 else "findings"
        lines.append(f"{count} {noun}")
    return "\n".join(lines)


def finding_to_dict(finding: Finding) -> Dict[str, Any]:
    return {
        "file": finding.file,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule,
        "message": finding.message,
    }


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document (``version``, ``count``, ``findings``)."""
    payload: Dict[str, Any] = {
        "version": JSON_SCHEMA_VERSION,
        "count": len(findings),
        "findings": [finding_to_dict(f) for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_rules() -> List[Dict[str, Any]]:
    """``tool.driver.rules`` entries, in registry order.

    Every registered rule is described (not just the ones with
    findings) so code-scanning UIs can show the full catalogue, and so
    ``ruleIndex`` below is stable across runs.
    """
    rules: List[Dict[str, Any]] = []
    for rule_id, summary in rule_table():
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": summary},
                "fullDescription": {"text": explain_rule(rule_id)},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return rules


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 document for ``pccs lint --format sarif``.

    One run, one result per finding. ``Finding.col`` is a 0-based AST
    column offset; SARIF regions are 1-based, hence ``col + 1``. File
    paths are emitted with forward slashes so the URIs resolve on the
    code-scanning side regardless of the linting host.
    """
    from repro import __version__

    rule_index = {rule_id: i for i, (rule_id, _) in enumerate(rule_table())}
    results: List[Dict[str, Any]] = []
    for f in findings:
        results.append(
            {
                "ruleId": f.rule,
                "ruleIndex": rule_index.get(f.rule, -1),
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.file.replace("\\", "/"),
                            },
                            "region": {
                                "startLine": f.line,
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    payload: Dict[str, Any] = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "pccs-lint",
                        "version": __version__,
                        "rules": _sarif_rules(),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


__all__ = [
    "JSON_SCHEMA_VERSION",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "finding_to_dict",
    "render_json",
    "render_sarif",
    "render_text",
]
