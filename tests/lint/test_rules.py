"""Per-rule fixtures: positive, negative, and suppressed snippets."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_source

SCHED_PATH = "src/repro/dram/schedulers/fake.py"
MODEL_PATH = "src/repro/core/fake.py"
PERF_PATH = "src/repro/perf/fake.py"


def findings_for(source: str, path: str = MODEL_PATH, rules=None):
    return lint_source(textwrap.dedent(source), path=path, rule_ids=rules)


def rule_ids(source: str, path: str = MODEL_PATH, rules=None):
    return [f.rule for f in findings_for(source, path, rules)]


def raise_lines(source: str, path: str = MODEL_PATH):
    """Lines LINT007 flags in ``source`` (its blank first line is 1)."""
    return [f.line for f in findings_for(source, path, ["LINT007"])]


class TestLint001UnorderedIteration:
    def test_positive_for_over_set(self):
        src = """
        def select(queue):
            pending = set(queue)
            for req in pending:
                serve(req)
        """
        assert rule_ids(src, SCHED_PATH) == ["LINT001"]

    def test_positive_for_over_dict_values(self):
        src = """
        def select(by_core):
            for reqs in by_core.values():
                serve(reqs)
        """
        assert rule_ids(src, SCHED_PATH) == ["LINT001"]

    def test_positive_min_over_keys_without_key(self):
        src = """
        def select(by_core):
            return min(by_core.keys())
        """
        assert rule_ids(src, SCHED_PATH) == ["LINT001"]

    def test_positive_set_literal(self):
        src = """
        def select(a, b):
            for item in {a, b}:
                serve(item)
        """
        assert rule_ids(src, SCHED_PATH) == ["LINT001"]

    def test_negative_sorted_wrapper(self):
        src = """
        def select(queue, by_core):
            for req in sorted(set(queue)):
                serve(req)
            for core, reqs in sorted(by_core.items()):
                serve(reqs)
        """
        assert rule_ids(src, SCHED_PATH) == []

    def test_negative_min_with_key(self):
        src = """
        def select(by_core):
            return min(by_core.keys(), key=lambda c: (c.load, c.id))
        """
        assert rule_ids(src, SCHED_PATH) == []

    def test_negative_list_iteration(self):
        src = """
        def select(queue):
            for req in list(queue):
                serve(req)
        """
        assert rule_ids(src, SCHED_PATH) == []

    def test_negative_outside_scheduler_scope(self):
        src = """
        def helper(by_core):
            for reqs in by_core.values():
                serve(reqs)
        """
        assert rule_ids(src, MODEL_PATH) == []

    def test_scope_is_per_function(self):
        # 'items' is a set in one function, a parameter in another.
        src = """
        def a(streams):
            items = {s.name for s in streams}
            return sorted(items)

        def b(items):
            for entry in items:
                serve(entry)
        """
        assert rule_ids(src, SCHED_PATH) == []

    def test_suppressed(self):
        src = """
        def select(by_core):
            for reqs in by_core.values():  # lint: disable=LINT001
                serve(reqs)
        """
        assert rule_ids(src, SCHED_PATH) == []


class TestLint011UnseededRandom:
    def test_positive_module_level_random(self):
        src = """
        import random

        def jitter():
            return random.random()
        """
        assert rule_ids(src) == ["LINT011"]

    def test_positive_from_import(self):
        src = """
        from random import choice

        def pick(items):
            return choice(items)
        """
        assert rule_ids(src) == ["LINT011"]

    def test_positive_numpy_random(self):
        src = """
        import numpy as np

        def noise():
            return np.random.rand()
        """
        assert rule_ids(src) == ["LINT011"]

    def test_negative_seeded_instance(self):
        src = """
        import random

        def make_rng(seed):
            return random.Random(seed)

        def draw(rng):
            return rng.random()
        """
        assert rule_ids(src) == []

    def test_negative_numpy_default_rng(self):
        src = """
        import numpy as np

        def make_rng(seed):
            return np.random.default_rng(seed)
        """
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = """
        import random

        def jitter():
            return random.random()  # lint: disable=LINT011
        """
        assert rule_ids(src) == []


class TestLint011WallClock:
    def test_positive_time_time(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert rule_ids(src) == ["LINT011"]

    def test_positive_from_import_perf_counter(self):
        src = """
        from time import perf_counter

        def stamp():
            return perf_counter()
        """
        assert rule_ids(src) == ["LINT011"]

    def test_positive_datetime_now(self):
        src = """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
        assert rule_ids(src) == ["LINT011"]

    def test_positive_datetime_module_chain(self):
        src = """
        import datetime

        def stamp():
            return datetime.datetime.utcnow()
        """
        assert rule_ids(src) == ["LINT011"]

    def test_negative_in_perf_package(self):
        src = """
        import time

        def stamp():
            return time.perf_counter()
        """
        assert rule_ids(src, PERF_PATH) == []

    def test_negative_time_sleep(self):
        src = """
        import time

        def pause():
            time.sleep(0.1)
        """
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = """
        import time

        def stamp():
            return time.time()  # lint: disable=LINT011
        """
        assert rule_ids(src) == []


class TestLint004FloatEquality:
    def test_positive_eq(self):
        src = """
        def at_limit(x):
            return x == 1.0
        """
        assert rule_ids(src) == ["LINT004"]

    def test_positive_noteq_negative_literal(self):
        src = """
        def off_floor(x):
            return x != -0.5
        """
        assert rule_ids(src) == ["LINT004"]

    def test_negative_int_literal(self):
        src = """
        def empty(n):
            return n == 0
        """
        assert rule_ids(src) == []

    def test_negative_inequality(self):
        src = """
        def saturated(x):
            return x >= 1.0
        """
        assert rule_ids(src) == []

    def test_negative_isclose(self):
        src = """
        import math

        def at_limit(x):
            return math.isclose(x, 1.0)
        """
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = """
        def at_limit(x):
            return x == 1.0  # lint: disable=LINT004
        """
        assert rule_ids(src) == []


class TestLint005MutableDefaults:
    def test_positive_list_default(self):
        src = """
        def collect(out=[]):
            return out
        """
        assert rule_ids(src) == ["LINT005"]

    def test_positive_dict_constructor(self):
        src = """
        def collect(out=dict()):
            return out
        """
        assert rule_ids(src) == ["LINT005"]

    def test_positive_kwonly_set(self):
        src = """
        def collect(*, seen={1, 2}):
            return seen
        """
        assert rule_ids(src) == ["LINT005"]

    def test_negative_none_default(self):
        src = """
        def collect(out=None):
            return out if out is not None else []
        """
        assert rule_ids(src) == []

    def test_negative_tuple_default(self):
        src = """
        def collect(out=()):
            return out
        """
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = """
        def collect(out=[]):  # lint: disable=LINT005
            return out
        """
        assert rule_ids(src) == []


class TestLint012DirectUnpicklable:
    def test_positive_lambda_member(self):
        src = """
        class SweepJob:
            transform = lambda self, x: x + 1
        """
        assert rule_ids(src) == ["LINT012"]

    def test_positive_self_open_handle(self):
        src = """
        class ExportJob:
            def __init__(self, path):
                self.handle = open(path)
        """
        assert rule_ids(src) == ["LINT012"]

    def test_positive_field_default_lambda(self):
        src = """
        from dataclasses import dataclass, field

        @dataclass
        class RenderJob:
            fn: object = field(default=lambda: 1)
        """
        assert rule_ids(src) == ["LINT012"]

    def test_positive_any_class_in_perf_package(self):
        src = """
        class Helper:
            hook = lambda self: None
        """
        assert rule_ids(src, PERF_PATH) == ["LINT012"]

    def test_negative_plain_fields(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SweepJob:
            soc_name: str
            levels: tuple = ()
        """
        assert rule_ids(src) == []

    def test_negative_non_job_class_outside_perf(self):
        src = """
        class Helper:
            hook = lambda self: None
        """
        assert rule_ids(src, MODEL_PATH) == []

    def test_suppressed(self):
        src = """
        class SweepJob:
            transform = lambda self, x: x + 1  # lint: disable=LINT012
        """
        assert rule_ids(src) == []


class TestLint007BareRaises:
    def test_positive_valueerror(self):
        src = """
        def check(x):
            if x < 0:
                raise ValueError("negative")
        """
        assert rule_ids(src, rules=["LINT007"]) == ["LINT007"]

    def test_positive_bare_exception(self):
        src = """
        def boom():
            raise Exception("bad")
        """
        assert rule_ids(src, rules=["LINT007"]) == ["LINT007"]

    def test_positive_runtimeerror(self):
        src = """
        def boom():
            raise RuntimeError("bad state")
        """
        assert rule_ids(src, rules=["LINT007"]) == ["LINT007"]

    def test_negative_repro_error(self):
        src = """
        from repro.errors import SimulationError

        def check(x):
            if x < 0:
                raise SimulationError("negative")
        """
        assert rule_ids(src) == []

    def test_negative_keyerror_and_reraise(self):
        src = """
        def lookup(d, k):
            try:
                return d[k]
            except KeyError:
                raise
        """
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = """
        def check(x):
            if x < 0:
                raise ValueError("negative")  # lint: disable=LINT007
        """
        assert rule_ids(src, rules=["LINT007"]) == []

    def test_positive_any_other_builtin(self):
        src = """
        def load(path, key):
            if not path:
                raise OSError(path)
            raise KeyError(key)
        """
        assert raise_lines(src) == [4, 5]

    def test_positive_local_class_off_the_hierarchy(self):
        src = """
        class LocalError(Exception):
            pass

        def f():
            raise LocalError()
        """
        findings = findings_for(src, rules=["LINT007"])
        assert [f.line for f in findings] == [6]
        assert "repro.core.fake.LocalError" in findings[0].message

    def test_positive_class_imported_from_another_module(self):
        src = """
        from concurrent.futures import TimeoutError as PoolTimeout

        def wait():
            raise PoolTimeout()
        """
        findings = findings_for(src, rules=["LINT007"])
        assert [f.line for f in findings] == [5]
        assert "concurrent.futures.TimeoutError" in findings[0].message

    def test_negative_every_spelling_of_a_repro_errors_type(self):
        src = """
        import repro.errors
        import repro.errors as E
        from repro import errors
        from repro.errors import ConfigurationError as CE

        class SolverError(errors.SimulationError):
            pass

        class StiffSolverError(SolverError):
            pass

        def f(x):
            if x == 1:
                raise CE("a")
            if x == 2:
                raise errors.SimulationError("b")
            if x == 3:
                raise repro.errors.LintError("c")
            if x == 4:
                raise E.ObsError("d")
            raise StiffSolverError("e")
        """
        assert raise_lines(src) == []

    def test_whitelisted_builtins_and_getattr(self):
        src = """
        def __getattr__(name):
            raise AttributeError(name)

        class Base:
            def select(self):
                raise NotImplementedError

            def check(self):
                raise AssertionError("invariant")

            def stop(self):
                raise StopIteration

            def get(self, name):
                raise AttributeError(name)
        """
        # AttributeError is legal only inside a __getattr__.
        assert raise_lines(src) == [16]

    def test_unresolvable_targets_are_silent(self):
        src = """
        def f(exc, factory):
            if exc:
                raise exc
            raise factory.error("x")
        """
        assert raise_lines(src) == []

    # A raise is a finding where it stands, whoever calls its function.
    def test_positive_chain_flagged_only_at_the_raise(self):
        src = """
        def _a():
            raise KeyError("deep")

        def _b():
            return _a()

        def top():
            return _b()
        """
        assert raise_lines(src) == [3]

    def test_positive_cross_module_chain_flagged_in_the_raising_module(
        self, tmp_path
    ):
        from repro.lint import lint_paths

        soc = tmp_path / "src" / "repro" / "soc"
        soc.mkdir(parents=True)
        (soc / "a.py").write_text(
            "from repro.soc.b import leaf\n\n\n"
            "def top():\n    return leaf()\n"
        )
        (soc / "b.py").write_text('def leaf():\n    raise OSError("disk")\n')
        findings = lint_paths([str(tmp_path)], rule_ids=["LINT007"])
        assert [(Path(f.file).name, f.line) for f in findings] == [
            ("b.py", 2)
        ]


class TestLint013ModelPrint:
    def test_positive_print_in_scheduler(self):
        src = """
        def select(queue):
            print(len(queue))
            return queue[0]
        """
        assert rule_ids(src, SCHED_PATH) == ["LINT013"]

    def test_positive_print_in_core_model(self):
        src = """
        def solve(streams):
            print("debug", streams)
        """
        assert rule_ids(src, MODEL_PATH) == ["LINT013"]

    def test_positive_each_call_flagged(self):
        src = """
        def debug(a, b):
            print(a)
            print(b)
        """
        assert rule_ids(src, MODEL_PATH) == ["LINT013", "LINT013"]

    def test_negative_outside_model_scope(self):
        src = """
        def report(rows):
            print(rows)
        """
        assert rule_ids(src, PERF_PATH) == []
        assert rule_ids(src, "src/repro/analysis/fake.py") == []

    def test_negative_shadowed_by_parameter(self):
        src = """
        def render(print):
            print("routed through an injected sink")
        """
        assert rule_ids(src, MODEL_PATH) == []

    def test_negative_shadowed_by_assignment(self):
        src = """
        def render(sink):
            print = sink
            print("routed")
        """
        assert rule_ids(src, MODEL_PATH) == []

    def test_negative_shadowed_by_import(self):
        src = """
        from mysinks import emit as print

        def render(x):
            print(x)
        """
        assert rule_ids(src, MODEL_PATH) == []

    def test_negative_attribute_named_print(self):
        src = """
        def render(console, x):
            console.print(x)
        """
        assert rule_ids(src, MODEL_PATH) == []

    def test_suppression_pragma(self):
        src = """
        def debug(x):
            print(x)  # lint: disable=LINT013
        """
        assert rule_ids(src, MODEL_PATH) == []


class TestSuppressionMechanics:
    def test_standalone_pragma_covers_next_code_line(self):
        src = """
        def check(x):
            # lint: disable=LINT007 -- fixture: justification text here
            # (continues over a second comment line)
            raise ValueError("negative")
        """
        assert rule_ids(src, rules=["LINT007"]) == []

    def test_disable_all(self):
        src = """
        def check(x):
            raise ValueError("negative")  # lint: disable=all
        """
        assert rule_ids(src) == []

    def test_pragma_in_string_not_honored(self):
        src = """
        PRAGMA = "# lint: disable=LINT007"

        def check(x):
            raise ValueError("negative")
        """
        assert rule_ids(src, rules=["LINT007"]) == ["LINT007"]

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = """
        def check(x):
            raise ValueError("negative")  # lint: disable=LINT004
        """
        assert rule_ids(src, rules=["LINT007"]) == ["LINT007"]


class TestEngineBasics:
    def test_rule_subset_selection(self):
        src = """
        import time

        def f(out=[]):
            return time.time()
        """
        assert rule_ids(src, rules=["LINT005"]) == ["LINT005"]

    def test_unknown_rule_raises_linterror(self):
        from repro.errors import LintError

        with pytest.raises(LintError):
            lint_source("x = 1", rule_ids=["LINT999"])

    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n    pass\n", path="bad.py")
        assert [f.rule for f in findings] == ["LINT000"]

    def test_findings_sorted_by_location(self):
        src = """
        def b():
            raise ValueError("late")

        def a(out=[]):
            return out
        """
        findings = findings_for(src, rules=["LINT005", "LINT007"])
        assert [f.rule for f in findings] == ["LINT007", "LINT005"]
        assert findings[0].line < findings[1].line
