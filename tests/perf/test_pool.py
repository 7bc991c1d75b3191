"""The persistent warm worker pool: reuse, chunking, failures, metrics.

The tentpole contract is unchanged from PR 1: the pool may only change
wall-clock time, never a reported number — pool results must be
bit-identical to the serial path and to a fresh-executor-per-call run.
"""

import os
from dataclasses import dataclass

import pytest

from repro.errors import JobFailedError
from repro.experiments import common
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.runtime import ObsSession
from repro.perf import parallel_map, pool_generation, pool_size, shutdown_pool
from repro.perf.pool import _chunk_size, get_pool, map_on_pool


@dataclass(frozen=True)
class PidJob:
    """Reports the process it ran in (pool-reuse evidence)."""

    tag: int

    def run(self) -> int:
        return os.getpid()


@dataclass(frozen=True)
class Echo:
    value: int

    def run(self) -> int:
        return self.value


@dataclass(frozen=True)
class Fail:
    value: int

    def run(self):
        if self.value < 0:
            raise RuntimeError(f"bad value {self.value}")
        return self.value


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


class TestPoolLifecycle:
    def test_pool_reused_across_calls(self):
        first = parallel_map([PidJob(i) for i in range(6)], max_workers=2)
        generation = pool_generation()
        second = parallel_map([PidJob(i) for i in range(6)], max_workers=2)
        assert pool_generation() == generation  # same pool object
        assert pool_size() == 2
        # Same worker processes served both calls.
        assert set(first) & set(second)

    def test_pool_grows_but_never_shrinks(self):
        get_pool(2)
        generation = pool_generation()
        get_pool(1)
        assert pool_size() == 2 and pool_generation() == generation
        get_pool(3)
        assert pool_size() == 3 and pool_generation() == generation + 1

    def test_shutdown_then_recreate(self):
        parallel_map([Echo(i) for i in range(4)], max_workers=2)
        assert pool_size() == 2
        shutdown_pool()
        assert pool_size() == 0
        assert parallel_map([Echo(7)], max_workers=2) == [7]

    def test_chunk_size_adaptive(self):
        assert _chunk_size(1, 4) == 1
        assert _chunk_size(16, 4) == 1
        assert _chunk_size(320, 4) == 20
        assert _chunk_size(5, 1) == 2

    def test_ordering_preserved_across_chunks(self):
        jobs = [Echo(i) for i in range(37)]
        assert parallel_map(jobs, max_workers=3) == list(range(37))


@dataclass(frozen=True)
class Sleep:
    seconds: float

    def run(self) -> float:
        import time

        time.sleep(self.seconds)
        return self.seconds


class TestShutdownSemantics:
    def test_nonblocking_shutdown_returns_immediately(self):
        """The atexit path must not wait out a busy (or wedged) worker."""
        import time

        pool = get_pool(1)
        future = pool.submit(_sleep_forever_ish)
        time.sleep(0.2)  # let the worker actually pick the task up
        start = time.monotonic()
        shutdown_pool(wait=False)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0  # did not block on the 3s task
        assert pool_size() == 0
        future.cancel()

    def test_blocking_shutdown_still_default(self):
        parallel_map([Echo(i) for i in range(3)], max_workers=2)
        shutdown_pool()  # explicit callers keep the wait=True contract
        assert pool_size() == 0


def _sleep_forever_ish():
    import time

    time.sleep(3.0)


class TestPoolFailures:
    def test_failure_names_index_and_label_and_pool_survives(self):
        jobs = [Fail(i) for i in range(5)] + [Fail(-1)] + [Fail(9)]
        with pytest.raises(JobFailedError, match="bad value -1") as excinfo:
            parallel_map(jobs, max_workers=2)
        assert excinfo.value.index == 5
        assert "Fail" in excinfo.value.label
        assert "RuntimeError" in str(excinfo.value)
        assert "worker traceback" in str(excinfo.value)
        generation = pool_generation()
        assert parallel_map([Echo(1), Echo(2)], max_workers=2) == [1, 2]
        assert pool_generation() == generation  # not orphaned or rebuilt

    def test_map_on_pool_returns_results_by_index(self):
        results = map_on_pool(
            [(4, Echo(40)), (2, Echo(20))], {4: "a", 2: "b"}, 2
        )
        assert results == {4: 40, 2: 20}


class TestPoolMetricsShipping:
    def test_pool_counters_equal_serial(self):
        """repro.obs counters must stay exact under the pool path."""
        from repro.experiments.fig8_11 import run_validation

        benchmarks = ("cfd", "bfs")

        def counters(jobs):
            common.clear_caches()
            session = ObsSession(metrics=True)
            obs_runtime.activate(session)
            try:
                run_validation(
                    "fig8", steps=3, benchmarks=benchmarks, jobs=jobs
                )
            finally:
                obs_runtime.deactivate()
            return session.metrics.snapshot()

        serial = counters(1)
        pooled = counters(2)
        assert serial == pooled
        assert serial.counter_value("soc.coruns") > 0

    def test_absorb_matches_merge(self):
        snap = MetricsSnapshot(
            counters=(("a", 2.0), ("b", 3.0)),
            gauges=(("g", 5.0),),
            histograms=(("h", (1.0, 2.0), (1, 2, 0), 3.5),),
        )
        registry = MetricsRegistry()
        registry.counter("a").inc(1.0)
        registry.gauge("g").set(7.0)
        registry.histogram("h", (1.0, 2.0)).observe(0.5)
        registry.absorb(snap)
        merged = registry.snapshot()
        assert merged.counter_value("a") == 3.0
        assert merged.counter_value("b") == 3.0
        assert dict(merged.gauges)["g"] == 7.0
        name, edges, counts, total = merged.histograms[0]
        assert counts == (2, 2, 0)
        assert total == 4.0


class TestPoolVsSerialBitIdentity:
    def test_fig8_pool_vs_serial_vs_fresh_executor(self):
        """Warm pool == serial == PR 1's fresh-pool-per-call executor."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.fig8_11 import run_validation
        from repro.perf.jobs import PressureSweepJob
        from repro.soc.spec import PUType
        from repro.workloads.rodinia import rodinia_kernel
        from repro.workloads.roofline import pressure_levels

        benchmarks = ("cfd", "hotspot")
        common.clear_caches()
        serial = run_validation(
            "fig8", steps=3, benchmarks=benchmarks, jobs=1
        )
        common.clear_caches()
        pooled = run_validation(
            "fig8", steps=3, benchmarks=benchmarks, jobs=2
        )
        assert serial == pooled

        # PR 1 path: a cold executor spawned for this one call.
        engine = common.engine_for("xavier-agx")
        levels = tuple(pressure_levels(engine.soc.peak_bw, steps=3))
        jobs = [
            PressureSweepJob(
                "xavier-agx", rodinia_kernel(n, PUType.GPU), "gpu", levels
            )
            for n in benchmarks
        ]
        with ProcessPoolExecutor(max_workers=2) as fresh:
            fresh_sweeps = list(fresh.map(_run_job, jobs))
        pool_sweeps = parallel_map(jobs, max_workers=2)
        assert fresh_sweeps == pool_sweeps

    def test_pool_reuse_across_two_consecutive_sweeps(self):
        """Second sweep reuses warm workers and still matches serial."""
        from repro.experiments.fig8_11 import run_validation

        common.clear_caches()
        first_serial = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=1
        )
        second_serial = run_validation(
            "fig9", steps=3, benchmarks=("streamcluster", "bfs"), jobs=1
        )
        common.clear_caches()
        first = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=2
        )
        generation = pool_generation()
        second = run_validation(
            "fig9", steps=3, benchmarks=("streamcluster", "bfs"), jobs=2
        )
        assert pool_generation() == generation
        assert first == first_serial
        assert second == second_serial

    def test_fig5_pool_vs_serial(self):
        """The DRAM study's runs (``DramRunJob``) at 2 workers give the
        serial result: no run depends on which process ran before it."""
        from repro.experiments.fig5_table3 import run_fig5_table3
        from repro.perf import default_max_workers, set_default_max_workers

        grid = dict(
            victim_demands=(36.0, 72.0),
            pressure_levels=(12.0, 48.0),
            requests=100,
            policies=("fcfs", "atlas"),
        )
        serial = run_fig5_table3(**grid)
        previous = default_max_workers()
        set_default_max_workers(2)
        try:
            pooled = run_fig5_table3(**grid)
        finally:
            set_default_max_workers(previous)
        assert pooled == serial


def _run_job(job):
    return job.run()
