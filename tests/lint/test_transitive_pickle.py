"""LINT012 fixtures: unpicklable values reaching jobs via helpers."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source


def _lint(source: str, path: str = "src/repro/perf/fixture.py"):
    return lint_source(
        textwrap.dedent(source), path=path, rule_ids=["LINT012"]
    )


class TestTruePositives:
    def test_helper_returning_lambda(self):
        findings = _lint(
            """
            def make_key():
                return lambda r: r.name


            class SweepJob:
                def __init__(self):
                    self.key = make_key()
            """
        )
        assert len(findings) == 1
        assert "make_key" in findings[0].message

    def test_two_level_helper_chain(self):
        findings = _lint(
            """
            def leaf():
                return lambda r: r.name


            def wrap():
                return leaf()


            class SweepJob:
                def __init__(self):
                    self.key = wrap()
            """
        )
        assert len(findings) == 1
        assert "wrap" in findings[0].message

    def test_nested_def_closure_member(self):
        findings = _lint(
            """
            class SweepJob:
                def __init__(self, bound):
                    def clamp(value):
                        return min(value, bound)
                    self.clamp = clamp
            """
        )
        assert len(findings) == 1
        assert "closure" in findings[0].message

    def test_module_level_lambda_global(self):
        findings = _lint(
            """
            KEYFN = lambda r: r.name


            class SweepJob:
                key = KEYFN
            """
        )
        assert len(findings) == 1
        assert "KEYFN" in findings[0].message

    def test_self_method_returning_generator(self):
        findings = _lint(
            """
            class SweepJob:
                def _stream(self):
                    return (x for x in self.items)

                def __init__(self):
                    self.stream = self._stream()
            """
        )
        assert len(findings) == 1
        assert "_stream" in findings[0].message


class TestTrueNegatives:
    def test_picklable_helper_value(self):
        findings = _lint(
            """
            def make_config():
                return {"iters": 10}


            class SweepJob:
                def __init__(self):
                    self.config = make_config()
            """
        )
        assert findings == []

    def test_module_level_function_reference(self):
        # A module-level def is picklable by qualified name.
        findings = _lint(
            """
            def keyfn(record):
                return record.name


            class SweepJob:
                def __init__(self):
                    self.key = keyfn
            """
        )
        assert findings == []

    def test_non_job_class_out_of_perf_is_ignored(self):
        findings = _lint(
            """
            def make_key():
                return lambda r: r.name


            class Plotter:
                def __init__(self):
                    self.key = make_key()
            """,
            path="src/repro/analysis/fixture.py",
        )
        assert findings == []

    def test_job_suffix_triggers_outside_perf_dir(self):
        findings = _lint(
            """
            def make_key():
                return lambda r: r.name


            class RenderJob:
                def __init__(self):
                    self.key = make_key()
            """,
            path="src/repro/analysis/fixture.py",
        )
        assert len(findings) == 1


class TestSuppression:
    def test_pragma_disables_the_finding(self):
        findings = _lint(
            """
            def make_key():
                return lambda r: r.name


            class SweepJob:
                def __init__(self):
                    self.key = make_key()  # lint: disable=LINT012
            """
        )
        assert findings == []
