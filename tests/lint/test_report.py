"""Report rendering: text format and the versioned JSON schema."""

from __future__ import annotations

import json

from repro.lint import lint_source, render_json, render_text
from repro.lint.report import JSON_SCHEMA_VERSION
from repro.lint.rules import Finding

VIOLATION = "def f(out=[]):\n    raise ValueError(str(out))\n"


def sample_findings():
    return lint_source(VIOLATION, path="src/repro/core/fake.py")


class TestTextReport:
    def test_clean_summary(self):
        assert render_text([]) == "clean: no findings"

    def test_line_format_and_count(self):
        findings = sample_findings()
        text = render_text(findings)
        lines = text.splitlines()
        assert lines[-1] == f"{len(findings)} findings"
        for finding, line in zip(findings, lines):
            assert line == (
                f"{finding.file}:{finding.line}:{finding.col}: "
                f"{finding.rule} {finding.message}"
            )

    def test_singular_noun(self):
        finding = Finding("a.py", 1, 0, "LINT005", "msg")
        assert render_text([finding]).endswith("1 finding")


class TestJsonReport:
    def test_schema_keys_and_version(self):
        payload = json.loads(render_json(sample_findings()))
        assert set(payload) == {"version", "count", "findings"}
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["count"] == len(payload["findings"])
        for entry in payload["findings"]:
            assert set(entry) == {"file", "line", "col", "rule", "message"}
            assert isinstance(entry["line"], int)
            assert isinstance(entry["col"], int)
            assert entry["rule"].startswith("LINT")

    def test_empty_document(self):
        payload = json.loads(render_json([]))
        assert payload == {
            "version": JSON_SCHEMA_VERSION,
            "count": 0,
            "findings": [],
        }

    def test_deterministic_rendering(self):
        a = render_json(sample_findings())
        b = render_json(sample_findings())
        assert a == b


FLOW_VIOLATIONS = """\
import time


def make_key():
    return lambda r: r.name


class SweepJob:
    def __init__(self):
        self.key = make_key()


class Engine:
    def start(self):
        self.t0 = time.time()
"""


class TestFlowRuleReporting:
    """The JSON schema carries the flow-aware rule ids unchanged."""

    def test_golden_payload_with_flow_rules(self):
        findings = lint_source(
            FLOW_VIOLATIONS,
            path="src/repro/soc/fake.py",
            rule_ids=["LINT011", "LINT012"],
        )
        payload = json.loads(render_json(findings))
        rules = {entry["rule"] for entry in payload["findings"]}
        assert rules == {"LINT011", "LINT012"}
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["count"] == len(findings)

    def test_flow_rule_messages_render_in_text(self):
        findings = lint_source(
            FLOW_VIOLATIONS,
            path="src/repro/soc/fake.py",
            rule_ids=["LINT011", "LINT012"],
        )
        text = render_text(findings)
        assert "reads the wall clock" in text
        assert "parallel_map process boundary" in text


class TestSarifReport:
    def _doc(self, findings):
        from repro.lint.report import render_sarif

        return json.loads(render_sarif(findings))

    def test_envelope_and_version(self):
        doc = self._doc([])
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1
        assert doc["runs"][0]["results"] == []

    def test_driver_describes_every_registered_rule(self):
        from repro.lint.rules import ALL_RULE_IDS

        driver = self._doc([])["runs"][0]["tool"]["driver"]
        assert driver["name"] == "pccs-lint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == list(ALL_RULE_IDS)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]

    def test_result_location_is_one_based(self):
        finding = Finding("src\\repro\\core\\x.py", 7, 4, "LINT005", "msg")
        result = self._doc([finding])["runs"][0]["results"][0]
        assert result["ruleId"] == "LINT005"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 7
        # Finding.col is a 0-based AST offset; SARIF is 1-based.
        assert region["startColumn"] == 5
        uri = result["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]["uri"]
        assert "\\" not in uri

    def test_rule_index_matches_driver_order(self):
        findings = sample_findings()
        doc = self._doc(findings)
        driver = doc["runs"][0]["tool"]["driver"]
        for result in doc["runs"][0]["results"]:
            idx = result["ruleIndex"]
            assert driver["rules"][idx]["id"] == result["ruleId"]

    def test_deterministic_rendering(self):
        from repro.lint.report import render_sarif

        assert render_sarif(sample_findings()) == render_sarif(
            sample_findings()
        )


class TestExplain:
    def test_every_rule_has_explain_text(self):
        from repro.lint.rules import ALL_RULE_IDS, explain_rule

        for rule_id in ALL_RULE_IDS:
            text = explain_rule(rule_id)
            assert text.startswith(rule_id)
            assert "Scope:" in text

    def test_new_rules_document_the_contract(self):
        from repro.lint.rules import explain_rule

        assert "architecture.toml" in explain_rule("LINT017")
        assert "_LAZY_EXPORTS" in explain_rule("LINT018")
        assert "UnknownKeyError" in explain_rule("LINT019")

    def test_unknown_rule_raises(self):
        from repro.errors import LintError
        from repro.lint.rules import explain_rule

        import pytest

        with pytest.raises(LintError):
            explain_rule("LINT999")
