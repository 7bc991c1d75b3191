"""Unit tests for the whole-program summaries (repro.lint.effects)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint.effects import (
    EFFECTS_SCHEMA_VERSION,
    EffectsCache,
    Program,
    analyze_module,
    build_program,
    collect_imports,
    module_name_for,
)


def program_of(*named_sources) -> Program:
    return build_program(
        [(path, textwrap.dedent(src)) for path, src in named_sources]
    )


class TestModuleNaming:
    def test_repro_paths_get_dotted_names(self):
        assert (
            module_name_for("src/repro/perf/jobs.py") == "repro.perf.jobs"
        )

    def test_init_collapses_to_the_package(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_fixture_paths_use_the_stem(self):
        assert module_name_for("/tmp/xyz/helper.py") == "helper"


class TestCollectImports:
    def test_plain_aliased_and_from_imports(self):
        import ast

        tree = ast.parse(
            "import os\n"
            "import numpy as np\n"
            "from repro.obs import runtime as obs_runtime\n"
            "def f():\n"
            "    from repro.perf.pool import map_on_pool\n"
        )
        imports = collect_imports(tree, "repro.soc.engine")
        assert imports["os"] == "os"
        assert imports["np"] == "numpy"
        assert imports["obs_runtime"] == "repro.obs:runtime"
        # Function-local lazy imports are seen module-wide.
        assert imports["map_on_pool"] == "repro.perf.pool:map_on_pool"

    def test_relative_import_resolves_against_the_package(self):
        import ast

        tree = ast.parse("from . import spec\nfrom .configs import soc\n")
        imports = collect_imports(tree, "repro.soc.engine")
        assert imports["spec"] == "repro.soc:spec"
        assert imports["soc"] == "repro.soc.configs:soc"


class TestProgramResolution:
    """Call resolution, checked through what LINT019 asks of it: a
    raise must reach the caller along every kind of call edge."""

    def test_recursion_terminates_and_closes(self):
        program = program_of(
            (
                "rec.py",
                """
                def walk(d):
                    if d == 0:
                        raise KeyError(d)
                    return walk(d - 1)

                def ping(n):
                    return pong(n)

                def pong(n):
                    if n:
                        return ping(n - 1)
                    raise ValueError(n)
                """,
            )
        )
        escaped = program.escaped_raises()
        # The self-recursive and the mutually recursive functions
        # converge, each with the raise of the cycle.
        assert set(escaped["rec:walk"]) == {"builtin:KeyError"}
        assert set(escaped["rec:ping"]) == {"builtin:ValueError"}
        assert set(escaped["rec:pong"]) == {"builtin:ValueError"}

    def test_dynamic_dispatch_covers_job_subclasses(self):
        program = program_of(
            (
                "disp.py",
                """
                class AlphaJob:
                    def run(self):
                        raise KeyError("alpha")

                class BetaJob:
                    def run(self):
                        return 2

                class Plain:
                    def run(self):
                        raise OSError("not a job")

                def drive(job):
                    return job.run()
                """,
            )
        )
        # ``job.run()`` is closed-world dispatched to every *Job class.
        assert program.resolve_ref("disp", "dyn:run") == [
            "disp:AlphaJob.run",
            "disp:BetaJob.run",
        ]
        assert set(program.escaped_raises()["disp:drive"]) == {
            "builtin:KeyError"
        }

    def test_cross_module_import_resolution(self):
        program = program_of(
            (
                "src/repro/perf/alpha.py",
                """
                from repro.perf.beta import helper

                def top():
                    return helper()
                """,
            ),
            (
                "src/repro/perf/beta.py",
                """
                def helper():
                    raise LookupError("beta")
                """,
            ),
        )
        assert program.resolve_ref(
            "repro.perf.alpha", "import:repro.perf.beta:helper"
        ) == ["repro.perf.beta:helper"]
        line, origin = program.escaped_raises()["repro.perf.alpha:top"][
            "builtin:LookupError"
        ]
        assert (line, origin) == (5, "repro.perf.beta:helper")

    def test_submodule_attribute_calls_resolve(self):
        program = program_of(
            (
                "src/repro/perf/user.py",
                """
                from repro import obsish

                def go():
                    obsish.runtime.activate()
                """,
            ),
            (
                "src/repro/obsish/runtime.py",
                """
                def activate():
                    raise OSError("no session")
                """,
            ),
        )
        # ``from repro import obsish`` then ``obsish.runtime.activate``:
        # one dotted step at a time, without ``repro.obsish`` linted.
        assert program.resolve_ref(
            "repro.perf.user", "import:repro:obsish.runtime.activate"
        ) == ["repro.obsish.runtime:activate"]
        assert set(program.escaped_raises()["repro.perf.user:go"]) == {
            "builtin:OSError"
        }


class TestEffectsCache:
    def test_round_trip_preserves_summaries(self, tmp_path: Path):
        cache = EffectsCache(tmp_path)
        source = textwrap.dedent(
            """
            class LocalError(KeyError):
                pass

            class SweepJob:
                def run(self):
                    try:
                        return self.value
                    except AttributeError:
                        raise LocalError("value")
            """
        )
        computed = analyze_module(source, "cyc.py")
        key = cache.key_for(source)
        cache.store(key, computed)
        loaded = cache.lookup(key)
        assert loaded is not None
        assert loaded.to_json() == computed.to_json()
        assert loaded.classes["LocalError"].bases == ("builtin:KeyError",)
        assert loaded.functions["SweepJob.run"].raises == {
            "cyc:LocalError": 10
        }

    def test_corrupt_entry_is_a_miss(self, tmp_path: Path):
        cache = EffectsCache(tmp_path)
        source = "def f():\n    return 1\n"
        key = cache.key_for(source)
        cache.store(key, analyze_module(source, "z.py"))
        for entry in (tmp_path / "effects").rglob("*.json"):
            entry.write_text("{ not json")
        assert cache.lookup(key) is None

    def test_older_schema_is_a_miss(self, tmp_path: Path):
        """An entry of an earlier summary layout is recomputed, not
        read: its fields are not this analyzer's."""
        cache = EffectsCache(tmp_path)
        source = "def f():\n    raise KeyError(1)\n"
        key = cache.key_for(source)
        cache.store(key, analyze_module(source, "old.py"))
        (entry,) = (tmp_path / "effects").rglob("*.json")
        payload = json.loads(entry.read_text())
        payload["version"] = EFFECTS_SCHEMA_VERSION - 1
        entry.write_text(json.dumps(payload))
        assert cache.lookup(key) is None
        assert cache.misses == 1

    def test_build_program_uses_the_cache(self, tmp_path: Path):
        cache = EffectsCache(tmp_path)
        sources = [("one.py", "def f():\n    return 1\n")]
        first = build_program(sources, cache=cache)
        second = build_program(sources, cache=cache)
        assert first.fingerprint() == second.fingerprint()
        assert "f" in second.modules["one"].functions


class TestProgramFingerprint:
    def test_any_module_edit_changes_the_fingerprint(self):
        before = program_of(("a.py", "def f():\n    return 1\n"))
        after = program_of(("a.py", "def f():\n    return 2\n"))
        assert before.fingerprint() != after.fingerprint()
