"""Checkpoint/resume: interrupted sweeps keep their completed work.

``runner --sim-cache DIR`` stores each job's result the moment it
arrives, on the serial and the pool path alike, so whatever a Ctrl-C or
OOM kill interrupts, the next run with the same directory serves the
finished jobs from disk and computes only the rest.
"""

from dataclasses import dataclass

import pytest

from repro.errors import JobFailedError
from repro.experiments import common
from repro.perf import (
    activate_sim_cache,
    default_max_workers,
    parallel_map,
    pool_generation,
    pool_size,
    set_default_max_workers,
    set_sim_cache,
)
from repro.perf.simcache import SimCache, _records


def _records_on_disk(directory) -> int:
    return sum(
        len(list(_records(path.read_bytes())))
        for path in directory.glob("*.pkl")
    )


@dataclass(frozen=True)
class CacheableJob:
    """Deterministic, cacheable toy job."""

    value: int

    def signature(self) -> str:
        return f"checkpoint-test:{self.value}"

    def run(self) -> int:
        return self.value * 7


@dataclass(frozen=True)
class FailingJob:
    def signature(self) -> str:
        return "checkpoint-test:poison"

    def run(self) -> int:
        raise RuntimeError("sweep dies here")


class TestEagerStores:
    def test_completed_jobs_survive_a_failing_sweep(self, tmp_path):
        """The aborted sweep's finished results are already on disk."""
        cache = activate_sim_cache(tmp_path / "ckpt")
        jobs = [CacheableJob(i) for i in range(6)] + [FailingJob()]
        with pytest.raises(JobFailedError):
            parallel_map(jobs, max_workers=1)
        assert cache.stores == 6  # stored before the failure, not after

        # The "re-run after the interrupt": all six served from disk.
        # A fresh cache object on the same directory, as a restarted
        # process would build.
        resumed = SimCache(tmp_path / "ckpt")
        set_sim_cache(resumed)
        results = parallel_map(
            [CacheableJob(i) for i in range(6)], max_workers=1
        )
        assert results == [i * 7 for i in range(6)]
        assert resumed.hits == 6
        assert resumed.misses == 0

    def test_pool_path_stores_eagerly_too(self, tmp_path):
        cache = activate_sim_cache(tmp_path / "ckpt")
        jobs = [CacheableJob(i) for i in range(8)]
        results = parallel_map(jobs, max_workers=2)
        assert results == [i * 7 for i in range(8)]
        assert cache.stores == 8
        # Exactly once per job: a second pass is all hits, no stores.
        again = parallel_map(jobs, max_workers=2)
        assert again == results
        assert cache.stores == 8
        assert cache.hits == 8


class TestCtrlCMidPoolSweep:
    def test_interrupt_drops_pool_and_keeps_stored_results(
        self, tmp_path, monkeypatch
    ):
        """Ctrl-C mid pooled sweep keeps the results stored before it.

        The interrupt propagates, the pool is dropped without waiting,
        and every stored result is on disk for the resume.
        """
        cache = activate_sim_cache(tmp_path / "ckpt")
        store = cache.store

        def store_until_interrupt(key, value):
            if cache.stores == 3:
                raise KeyboardInterrupt
            return store(key, value)

        monkeypatch.setattr(cache, "store", store_until_interrupt)
        jobs = [CacheableJob(i) for i in range(16)]
        generation = pool_generation()
        with pytest.raises(KeyboardInterrupt):
            parallel_map(jobs, max_workers=2)
        assert pool_generation() == generation + 1  # the pool path ran
        assert pool_size() == 0
        assert _records_on_disk(cache.directory) == 3

        resumed = SimCache(tmp_path / "ckpt")
        set_sim_cache(resumed)
        results = parallel_map(jobs, max_workers=1)
        assert results == [i * 7 for i in range(16)]
        assert resumed.hits == 3


class TestResumeFromPartialSweep:
    def test_interrupted_sweep_resumes_without_recomputing(self, tmp_path):
        """Acceptance: the resume is asserted via sim-cache hit counters."""
        from repro.experiments.fig8_11 import run_validation

        # Clean reference, no cache anywhere near it.
        common.clear_caches()
        reference = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=1
        )

        # "Interrupted" run: only part of the sweep completed before
        # the kill — its results were checkpointed as they arrived.
        cache = activate_sim_cache(tmp_path / "ckpt")
        common.clear_caches()
        run_validation("fig8", steps=3, benchmarks=("cfd",), jobs=2)
        completed = cache.stores
        assert completed > 0

        # Resume over the full sweep: the completed benchmark is served
        # from the checkpoint, only the rest is computed.
        common.clear_caches()
        resumed = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=2
        )
        assert resumed == reference
        assert cache.hits >= completed
        assert cache.misses > 0  # the genuinely new work

    def test_interrupted_fig5_resumes_from_its_simulations(
        self, tmp_path, monkeypatch
    ):
        """What ``runner fig5_table3 --jobs 2 --sim-cache`` does on a
        small grid, with Ctrl-C after three DRAM runs were stored: the
        resume serves those three from disk and runs only the other
        nine."""
        from repro.experiments.fig5_table3 import run_fig5_table3

        grid = dict(
            victim_demands=(36.0, 72.0),
            pressure_levels=(12.0, 48.0),
            requests=100,
            policies=("fcfs", "atlas"),
        )
        reference = run_fig5_table3(**grid)

        cache = activate_sim_cache(tmp_path / "ckpt")
        store = cache.store

        def store_until_interrupt(key, value):
            if cache.stores == 3:
                raise KeyboardInterrupt
            return store(key, value)

        monkeypatch.setattr(cache, "store", store_until_interrupt)
        previous = default_max_workers()
        set_default_max_workers(2)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_fig5_table3(**grid)
        finally:
            set_default_max_workers(previous)
        assert _records_on_disk(cache.directory) == 3

        resumed = SimCache(tmp_path / "ckpt")
        set_sim_cache(resumed)
        assert run_fig5_table3(**grid) == reference
        assert (resumed.hits, resumed.misses, resumed.stores) == (3, 9, 9)

    def test_recovered_and_checkpointed_run_is_identical(
        self, tmp_path, kill_one_worker
    ):
        """Worker kill + checkpoint together: the acceptance combination."""
        from repro.experiments.fig8_11 import run_validation

        common.clear_caches()
        reference = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=1
        )

        cache = activate_sim_cache(tmp_path / "ckpt")
        common.clear_caches()
        chaotic = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=2
        )
        assert kill_one_worker.exists()
        assert chaotic == reference
        # Each result was checkpointed exactly once, lost ones included.
        assert cache.stores == _records_on_disk(cache.directory)
