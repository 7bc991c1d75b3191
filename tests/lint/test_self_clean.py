"""The tier-1 invariant: the repro package itself lints clean.

This is the teeth of the linter — any future commit that reintroduces a
banned pattern (unordered scheduler iteration, nondeterministic values,
exact float comparison, mutable defaults, unpicklable jobs, bare
builtin raises) fails the suite, not a reviewer's eyeball.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint import ALL_RULE_IDS, lint_paths, render_text

PACKAGE_ROOT = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def self_lint():
    """One default-set lint of the package: its findings and profile."""
    profile = {}
    findings = lint_paths([str(PACKAGE_ROOT)], profile=profile)
    return findings, profile


class TestSelfClean:
    def test_repro_package_has_zero_findings(self, self_lint):
        findings, _ = self_lint
        assert findings == [], "\n" + render_text(findings)

    def test_every_rule_ran(self):
        # Guard against the clean result coming from an empty registry.
        assert len(ALL_RULE_IDS) == 10
        assert ALL_RULE_IDS == (
            "LINT001", "LINT004", "LINT005", "LINT007", "LINT011",
            "LINT012", "LINT013", "LINT017", "LINT018", "LINT019",
        )

    def test_flow_rules_run_in_default_set(self, self_lint):
        # The profile records every checker that ran, so the clean
        # default-set result cannot come from a registry wiring bug that
        # skips one of the flow or module-graph rules.
        _, profile = self_lint
        assert set(profile) == set(ALL_RULE_IDS)
        for rule_id in (
            "LINT011",
            "LINT012",
            "LINT013",
            "LINT017",
            "LINT018",
            "LINT019",
        ):
            assert rule_id in profile

    def test_package_walk_covers_the_tree(self):
        from repro.lint.engine import iter_python_files

        files = list(iter_python_files([str(PACKAGE_ROOT)]))
        names = {f.name for f in files}
        # Spot-check that the walk reaches every layer the rules target.
        assert "engine.py" in names  # soc/engine.py and lint/engine.py
        assert "sms.py" in names
        assert "runner.py" in names
        assert len(files) > 80
