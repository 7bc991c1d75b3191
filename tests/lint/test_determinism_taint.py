"""LINT011 fixtures: every call that yields a nondeterministic value."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source

_SCOPED = "src/repro/soc/fixture.py"
_PERF = "src/repro/perf/fixture.py"


def _lint(source: str, path: str = _SCOPED):
    return lint_source(
        textwrap.dedent(source), path=path, rule_ids=["LINT011"]
    )


def _lines(findings):
    return [(f.rule, f.line) for f in findings]


class TestTruePositives:
    def test_wallclock_stored_into_model_state(self):
        findings = _lint(
            """
            import time


            class Engine:
                def start(self):
                    stamp = time.time()
                    self.t0 = stamp
            """
        )
        assert _lines(findings) == [("LINT011", 7)]
        assert "time.time()" in findings[0].message
        assert "wall clock" in findings[0].message

    def test_taint_flows_through_arithmetic(self):
        findings = _lint(
            """
            import time


            def elapsed_model_ns(base_ns):
                skew = time.time() * 1e9
                return base_ns + skew
            """
        )
        assert _lines(findings) == [("LINT011", 6)]

    def test_unseeded_rng_draw_returned(self):
        findings = _lint(
            """
            import random


            def jitter():
                rng = random.Random()
                return rng.random()
            """
        )
        assert _lines(findings) == [("LINT011", 6)]
        assert "random.Random()" in findings[0].message
        assert "seed" in findings[0].message

    def test_tainted_value_serialized(self):
        findings = _lint(
            """
            import json
            import time


            def dump(results, fh):
                stamped = {"at": time.time(), "results": results}
                json.dump(stamped, fh)
            """
        )
        assert _lines(findings) == [("LINT011", 7)]

    def test_datetime_now_yielded(self):
        findings = _lint(
            """
            import datetime


            def events():
                mark = datetime.datetime.now()
                yield mark
            """
        )
        assert _lines(findings) == [("LINT011", 6)]
        assert "datetime.datetime.now()" in findings[0].message

    def test_overwritten_read_is_still_flagged(self):
        # The read itself is the finding: a clock value that is
        # overwritten today can be kept by tomorrow's edit.
        findings = _lint(
            """
            import time


            def probe():
                stamp = time.time()
                stamp = 0.0
                return stamp
            """
        )
        assert _lines(findings) == [("LINT011", 6)]

    def test_rng_draw_steering_a_branch(self):
        findings = _lint(
            """
            import random


            class Engine:
                def step(self, p, a):
                    if random.random() < p:
                        self.x = a
            """
        )
        assert _lines(findings) == [("LINT011", 7)]

    def test_rng_draw_passed_as_an_argument(self):
        findings = _lint(
            """
            import random


            def select(q):
                serve(random.choice(q))
            """
        )
        assert _lines(findings) == [("LINT011", 6)]

    def test_in_place_shuffle(self):
        findings = _lint(
            """
            import random


            def reorder(q):
                random.shuffle(q)
            """
        )
        assert _lines(findings) == [("LINT011", 6)]
        assert "random.shuffle()" in findings[0].message

    def test_numpy_random_attribute_chain(self):
        findings = _lint(
            """
            import numpy as np


            class Noise:
                def __init__(self):
                    self.noise = np.random.rand()
            """
        )
        assert _lines(findings) == [("LINT011", 7)]
        assert "numpy.random.rand()" in findings[0].message

    def test_numpy_random_from_import(self):
        findings = _lint(
            """
            from numpy.random import rand


            class Noise:
                def __init__(self):
                    self.noise = rand()
            """
        )
        assert _lines(findings) == [("LINT011", 7)]
        assert "numpy.random.rand()" in findings[0].message

    def test_os_entropy_sources(self):
        findings = _lint(
            """
            import os
            import random
            import uuid
            from secrets import token_hex


            def ids():
                return os.urandom(8), uuid.uuid4(), token_hex(4)


            def rng():
                return random.SystemRandom()
            """
        )
        assert _lines(findings) == [("LINT011", 9)] * 3 + [("LINT011", 13)]
        assert all("OS entropy" in f.message for f in findings)

    def test_unseeded_numpy_constructors(self):
        findings = _lint(
            """
            import numpy as np


            def rngs(seed):
                return (
                    np.random.default_rng(),
                    np.random.SeedSequence(),
                    np.random.default_rng(seed),
                    np.random.SeedSequence(entropy=seed),
                )
            """
        )
        assert _lines(findings) == [("LINT011", 7), ("LINT011", 8)]


class TestTrueNegatives:
    def test_seeded_rng_is_clean(self):
        findings = _lint(
            """
            import random


            def jitter(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert findings == []

    def test_untainted_model_math_is_clean(self):
        findings = _lint(
            """
            class Engine:
                def advance(self, dt_ns):
                    self.now_ns = self.now_ns + dt_ns
            """
        )
        assert findings == []

    def test_out_of_scope_paths_are_ignored(self):
        # repro/perf/ times the harness, so its wall-clock reads are
        # exempt.
        findings = _lint(
            """
            import time


            class Harness:
                def start(self):
                    self.t0 = time.time()
            """,
            path=_PERF,
        )
        assert findings == []


class TestSuppression:
    def test_pragma_disables_the_finding(self):
        findings = _lint(
            """
            import time


            class Engine:
                def start(self):
                    self.t0 = time.time()  # lint: disable=LINT011
            """
        )
        assert findings == []
