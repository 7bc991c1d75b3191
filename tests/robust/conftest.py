"""Shared fixtures for the worker-loss and checkpoint suites."""

import os
import signal

import pytest

from repro.perf import set_sim_cache, shutdown_pool
from repro.perf.jobs import PressureSweepJob


@pytest.fixture(autouse=True)
def _clean_slate():
    """Fresh pool and no active sim cache, before and after each test."""
    shutdown_pool()
    previous = set_sim_cache(None)
    yield
    set_sim_cache(previous)
    shutdown_pool()


@pytest.fixture
def kill_one_worker(tmp_path, monkeypatch):
    """Make exactly one pool worker SIGKILL itself mid-sweep.

    ``PressureSweepJob.run`` is patched after the pool is shut down, so
    the next pool's forked workers inherit the patch. The first worker
    to finish a sweep claims an ``O_EXCL`` token and dies the way an
    OOM kill looks to the pool: no cleanup, no shipped outcome. Sweeps
    run by the coordinator itself are untouched. Returns the token
    path, which exists once a worker has died.
    """
    shutdown_pool()
    token = tmp_path / "worker-killed"
    coordinator = os.getpid()
    run = PressureSweepJob.run

    def run_then_die(self):
        result = run(self)
        if os.getpid() != coordinator:
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return result
            os.kill(os.getpid(), signal.SIGKILL)
        return result

    monkeypatch.setattr(PressureSweepJob, "run", run_then_die)
    return token
