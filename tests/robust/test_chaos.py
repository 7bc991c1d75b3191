"""Worker loss and torn cache entries against the real pool and cache.

A worker SIGKILLs itself mid-sweep (the ``kill_one_worker`` fixture),
every worker dies, or cache entries are torn on disk — and the sweep
must still complete, with results identical to a clean serial run
(bit-identity, metrics included).
"""

import os
import signal
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import JobFailedError
from repro.experiments import common
from repro.experiments.fig8_11 import run_validation
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import ObsSession
from repro.perf import activate_sim_cache, parallel_map, recovery_counters

BENCHMARKS = ("cfd", "bfs")

#: Counter namespaces written by the worker-loss path itself; only
#: these may differ between a clean serial run and a pooled run that
#: lost a worker.
RECOVERY_PREFIXES = ("pool.", "jobs.")


@dataclass(frozen=True)
class KillsAnyWorker:
    """Cacheable job that SIGKILLs any pool worker that runs it.

    In the coordinator it returns, or raises for a negative value.
    """

    value: int
    coordinator: int

    def signature(self) -> str:
        return f"kills-any-worker:{self.value}"

    def run(self) -> int:
        if os.getpid() != self.coordinator:
            os.kill(os.getpid(), signal.SIGKILL)
        if self.value < 0:
            raise RuntimeError("sweep dies here")
        return self.value * 7


def _delta(before, after):
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in after
        if after.get(key, 0) != before.get(key, 0)
    }


def _fig8(jobs):
    common.clear_caches()
    return run_validation("fig8", steps=3, benchmarks=BENCHMARKS, jobs=jobs)


class TestWorkerKillRecovery:
    def test_sigkilled_worker_recovered_bit_identical(self, kill_one_worker):
        """A worker OOM-kill mid-fig8 must not change a single number."""
        serial = _fig8(jobs=1)
        before = recovery_counters()
        chaotic = _fig8(jobs=2)
        delta = _delta(before, recovery_counters())

        assert chaotic == serial
        assert kill_one_worker.exists()  # a worker died
        assert delta.get("pool.rebuilds") == 1
        assert delta.get("jobs.retried", 0) >= 1

    def test_metrics_not_double_absorbed_across_retry(self, kill_one_worker):
        """Simulator counters stay exact through a worker loss.

        The killed worker had already run a sweep, so its registry held
        real increments — the chunk outcome (results + snapshot) dying
        with it, and the in-process re-run being the only copy, is
        exactly what keeps the counters from double-counting.
        """

        def sim_counters(jobs):
            session = ObsSession(metrics=True)
            obs_runtime.activate(session)
            try:
                _fig8(jobs)
            finally:
                obs_runtime.deactivate()
            return tuple(
                (name, value)
                for name, value in session.metrics.snapshot().counters
                if not name.startswith(RECOVERY_PREFIXES)
            )

        clean = sim_counters(jobs=1)
        chaotic = sim_counters(jobs=2)
        assert kill_one_worker.exists()
        assert "soc.coruns" in dict(clean)
        assert chaotic == clean

    def test_recovery_counters_mirrored_into_obs(self, kill_one_worker):
        session = ObsSession(metrics=True)
        obs_runtime.activate(session)
        try:
            _fig8(jobs=2)
        finally:
            obs_runtime.deactivate()
        snap = session.metrics.snapshot()
        assert snap.counter_value("pool.rebuilds") == 1
        assert snap.counter_value("jobs.retried") >= 1
        assert dict(snap.counters_with_prefix("jobs.")) == {
            name: value
            for name, value in snap.counters
            if name.startswith("jobs.")
        }

    def test_runner_output_byte_identical(
        self, kill_one_worker, tmp_path, capsys
    ):
        """The CLI gate: ``runner fig8 --jobs 2`` loses a worker."""
        from repro.experiments import runner

        common.clear_caches()
        assert runner.main(["fig8", "--out", str(tmp_path / "serial")]) == 0
        common.clear_caches()
        capsys.readouterr()
        pooled = tmp_path / "pooled"
        assert runner.main(["fig8", "--jobs", "2", "--out", str(pooled)]) == 0
        stderr = capsys.readouterr().err
        assert kill_one_worker.exists()
        assert "recovery: " in stderr
        assert "pool.rebuilds=1" in stderr
        assert (pooled / "fig8.txt").read_bytes() == (
            tmp_path / "serial" / "fig8.txt"
        ).read_bytes()


class TestEveryWorkerDies:
    def test_sweep_finishes_in_process(self, tmp_path):
        """Workers that all die still leave an eagerly checkpointed sweep.

        Every pool worker dies on its first job, so the whole sweep is
        re-run in-process: the five good jobs are stored as they
        finish, then the poison job fails with its own index.
        """
        cache = activate_sim_cache(tmp_path / "ckpt")
        jobs = [KillsAnyWorker(i, os.getpid()) for i in range(5)]
        poison = KillsAnyWorker(-1, os.getpid())
        before = recovery_counters()
        with pytest.raises(JobFailedError) as excinfo:
            parallel_map(jobs + [poison], max_workers=2)
        assert excinfo.value.index == 5
        assert cache.stores == 5
        assert _delta(before, recovery_counters()) == {
            "pool.rebuilds": 1,
            "jobs.retried": 6,
        }
        assert parallel_map(jobs, max_workers=2) == [i * 7 for i in range(5)]
        assert cache.hits == 5


def _tear_entries(directory) -> int:
    """Truncate every cache entry in place, as a crashed writer would."""
    entries = sorted(Path(directory).glob("*/*.pkl"))
    for entry in entries:
        raw = entry.read_bytes()
        entry.write_bytes(raw[: len(raw) // 2])
    return len(entries)


class TestCacheCorruptionMidRun:
    def test_torn_entries_invalidated_and_recomputed(self, tmp_path):
        cache = activate_sim_cache(tmp_path / "cache")
        first = _fig8(jobs=1)
        assert cache.stores > 0
        torn = _tear_entries(cache.directory)
        assert torn == cache.stores

        second = _fig8(jobs=1)
        assert second == first
        assert cache.invalidations >= torn  # every tear detected
