"""Edge-case tests for the suppression pragma layer (repro.lint.suppress)."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source
from repro.lint.suppress import is_suppressed, parse_suppressions


def suppressions_of(source: str):
    return parse_suppressions(textwrap.dedent(source))


def rule_ids(source: str, path: str = "src/repro/soc/fix.py", rules=None):
    return [
        f.rule
        for f in lint_source(
            textwrap.dedent(source), path=path, rule_ids=rules
        )
    ]


class TestMultiRulePragmas:
    def test_comma_list_parses_every_rule(self):
        sup = suppressions_of("x = 1  # lint: disable=LINT001,LINT017\n")
        assert is_suppressed(sup, 1, "LINT001")
        assert is_suppressed(sup, 1, "LINT017")
        assert not is_suppressed(sup, 1, "LINT002")

    def test_spaces_and_case_are_tolerated(self):
        sup = suppressions_of("x = 1  # lint: disable=lint001 , LINT017\n")
        assert is_suppressed(sup, 1, "LINT001")
        assert is_suppressed(sup, 1, "LINT017")

    def test_one_pragma_silences_two_rules_on_the_same_line(self):
        src = """
        def lookup(key):
            if key == 0.5: raise KeyError(key)  # lint: disable=LINT004,LINT007
        """
        # LINT004 (the comparison) and LINT007 (the raise) both anchor
        # on this line; one pragma names both.
        assert rule_ids(src, rules=["LINT004", "LINT007"]) == []

    def test_partial_pragma_leaves_the_other_rule(self):
        src = """
        def boom(x):
            if x == 0.5: raise ValueError("x")  # lint: disable=LINT004
        """
        assert rule_ids(src, rules=["LINT004", "LINT007"]) == ["LINT007"]


class TestDecoratedDefs:
    DECORATED = """
    def wrap(f):
        return f

    @wrap
    def f(out=[]):  # lint: disable=LINT005
        return out
    """

    def test_trailing_pragma_on_the_def_line_works(self):
        assert rule_ids(self.DECORATED, rules=["LINT005"]) == []

    def test_standalone_pragma_above_decorator_covers_the_decorator_line(
        self,
    ):
        src = """
        def wrap(f):
            return f

        # lint: disable=LINT005
        @wrap
        def f(out=[]):
            return out
        """
        # The standalone pragma targets the next code line — the
        # decorator, not the def — so the finding on the def line stays.
        assert rule_ids(src, rules=["LINT005"]) == ["LINT005"]

    def test_standalone_pragma_directly_above_the_def_line_works(self):
        src = """
        def wrap(f):
            return f

        @wrap
        # lint: disable=LINT005
        def f(out=[]):
            return out
        """
        assert rule_ids(src, rules=["LINT005"]) == []


class TestFStrings:
    def test_pragma_text_inside_fstring_not_honored(self):
        src = """
        def f(out=[]):
            return f"# lint: disable=LINT005 {out}"
        """
        assert rule_ids(src, rules=["LINT005"]) == ["LINT005"]

    def test_trailing_pragma_on_a_line_with_an_fstring_works(self):
        src = """
        def f(out=[]):  # lint: disable=LINT005
            return f"{out}"
        """
        assert rule_ids(src, rules=["LINT005"]) == []

    def test_multiline_fstring_lines_count_as_code(self):
        # A standalone pragma above a multi-line f-string targets the
        # string's first line, not code after the string.
        src = '''
        LABEL = f"""
        # lint: disable=all
        {1 + 1}
        """
        '''
        sup = suppressions_of(src)
        assert sup == {}
