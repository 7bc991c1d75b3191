"""Unit tests for the interprocedural effect analysis (repro.lint.effects)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.effects import (
    EffectsCache,
    Program,
    analyze_module,
    build_program,
    collect_imports,
    module_name_for,
)


def analyze(source: str, path: str = "fix.py", name=None):
    return analyze_module(textwrap.dedent(source), path, name)


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


class TestFunctionSummaries:
    def test_self_reads_and_writes(self):
        module = analyze(
            """
            class Model:
                def step(self):
                    self.cycles = self.cycles + self.delta
            """
        )
        fx = module.functions["Model.step"]
        assert "cycles" in fx.self_reads and "delta" in fx.self_reads
        assert "cycles" in fx.self_writes

    def test_mutator_method_counts_as_write(self):
        module = analyze(
            """
            _CACHE = {}

            class Box:
                def put(self, item):
                    self.items.append(item)

            def remember(k, v):
                _CACHE[k] = v
            """
        )
        assert "items" in module.functions["Box.put"].self_writes
        assert "_CACHE" in module.functions["remember"].global_writes

    def test_obs_calls(self):
        module = analyze(
            """
            import time
            from repro.obs import runtime as obs_runtime

            def now():
                obs_runtime.active()
                return time.time()
            """
        )
        fx = module.functions["now"]
        # Only the call into repro.obs counts, not the one into time.
        assert fx.obs_calls == {"import:repro.obs:runtime.active"}

    def test_self_escape_is_recorded(self):
        module = analyze(
            """
            def sink(x):
                pass

            class Job:
                def run(self):
                    sink(self)
            """
        )
        assert module.functions["Job.run"].self_escapes


class TestProgramResolution:
    def test_recursion_terminates_and_closes(self):
        program = program_of(
            (
                "rec.py",
                """
                class WalkJob:
                    def run(self):
                        return self._walk(self.depth)

                    def _walk(self, d):
                        if d == 0:
                            return self.leaf
                        return self._walk(d - 1)

                    def signature(self):
                        return repr(self.depth)
                """,
            )
        )
        reads, _, _ = program.class_closure("rec", "WalkJob", "run")
        # The mutually recursive helper converges and both attributes
        # reached through it are in run()'s closure.
        assert {"depth", "leaf"} <= reads

    def test_dynamic_dispatch_covers_job_subclasses(self):
        program = program_of(
            (
                "disp.py",
                """
                _SEEN = []

                class AlphaJob:
                    def run(self):
                        _SEEN.append(1)

                class BetaJob:
                    def run(self):
                        return 2

                def drive(job):
                    return job.run()

                def start(pool):
                    pool.submit(drive, None)
                """,
            )
        )
        reachable = program.worker_reachable()
        # ``job.run()`` is closed-world dispatched to every *Job class.
        assert "disp:AlphaJob.run" in reachable
        assert "disp:BetaJob.run" in reachable

    def test_property_access_resolves_to_the_accessor(self):
        program = program_of(
            (
                "prop.py",
                """
                class SweepJob:
                    @property
                    def resolved(self):
                        return self.raw * 2

                    def run(self):
                        return self.resolved

                    def signature(self):
                        return repr(self.raw)
                """,
            )
        )
        reads, _, _ = program.class_closure("prop", "SweepJob", "run")
        # run() touches ``self.resolved``; the closure follows the
        # accessor and surfaces the underlying ``raw`` read.
        assert "raw" in reads

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
                _HITS = []

                def helper():
                    _HITS.append(1)
                """,
            ),
        )
        reachable = program.reachable(["repro.perf.alpha:top"])
        assert "repro.perf.beta:helper" in reachable

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
                _STACK = []

                def activate():
                    _STACK.append(1)
                """,
            ),
        )
        reachable = program.reachable(["repro.perf.user:go"])
        assert "repro.obsish.runtime:activate" in reachable

    def test_impure_functions_fixpoint_is_transitive(self):
        program = program_of(
            (
                "imp.py",
                """
                _STATE = {}

                def leaf(k):
                    _STATE[k] = 1

                def middle(k):
                    leaf(k)

                def top(k):
                    middle(k)

                def pure(x):
                    return x + 1
                """,
            )
        )
        impure = program.impure_functions()
        assert "imp:leaf" in impure
        assert "imp:middle" in impure
        assert "imp:top" in impure
        assert "imp:pure" not in impure

    def test_obs_returning_fixpoint(self):
        program = program_of(
            (
                "src/repro/core/helper.py",
                """
                from repro.obs import runtime as obs_runtime

                def raw():
                    return obs_runtime.active()

                def wrapped():
                    return raw()

                def unrelated():
                    return 42
                """,
            )
        )
        returning = program.obs_returning()
        assert "repro.core.helper:raw" in returning
        assert "repro.core.helper:wrapped" in returning
        assert "repro.core.helper:unrelated" not in returning


class TestWorkerEntryPoints:
    def test_initializer_kwarg_is_an_entry(self):
        module = analyze(
            """
            def warm():
                pass

            def boot(ctx):
                ctx.Pool(initializer=warm)
            """
        )
        assert any("warm" in ref for ref in module.entry_points)

    def test_submit_first_argument_is_an_entry(self):
        module = analyze(
            """
            def chunk(items):
                pass

            def boot(pool, items):
                pool.submit(chunk, items)
            """
        )
        assert any("chunk" in ref for ref in module.entry_points)


class TestEffectsCache:
    def test_round_trip_preserves_summaries(self, tmp_path: Path):
        cache = EffectsCache(tmp_path)
        source = textwrap.dedent(
            """
            _G = []

            class SweepJob:
                SIGNATURE_INERT = ("label",)

                def run(self):
                    _G.append(self.label)
                    return self.value

                def signature(self):
                    return repr(self.value)
            """
        )
        computed = analyze_module(source, "cyc.py")
        key = cache.key_for(source)
        cache.store(key, computed)
        loaded = cache.lookup(key)
        assert loaded is not None
        assert loaded.to_json() == computed.to_json()
        assert loaded.classes["SweepJob"].inert_fields == {"label"}

    def test_corrupt_entry_is_a_miss(self, tmp_path: Path):
        cache = EffectsCache(tmp_path)
        source = "def f():\n    return 1\n"
        key = cache.key_for(source)
        cache.store(key, analyze_module(source, "z.py"))
        for entry in (tmp_path / "effects").rglob("*.json"):
            entry.write_text("{ not json")
        assert cache.lookup(key) is None

    def test_build_program_uses_the_cache(self, tmp_path: Path):
        cache = EffectsCache(tmp_path)
        sources = [("one.py", "def f():\n    return 1\n")]
        first = build_program(sources, cache=cache)
        second = build_program(sources, cache=cache)
        assert first.fingerprint() == second.fingerprint()
        assert second.function("one:f") is not None


class TestProgramFingerprint:
    def test_any_module_edit_changes_the_fingerprint(self):
        before = program_of(("a.py", "def f():\n    return 1\n"))
        after = program_of(("a.py", "def f():\n    return 2\n"))
        assert before.fingerprint() != after.fingerprint()
