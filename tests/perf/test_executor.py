"""The parallel job executor: ordering, fallback, defaults, errors."""

from dataclasses import dataclass

import pytest

from repro.errors import JobFailedError, SimulationError
from repro.perf import (
    default_max_workers,
    job_label,
    parallel_map,
    pool_size,
    set_default_max_workers,
    shutdown_pool,
)


@dataclass(frozen=True)
class SquareJob:
    value: int

    def run(self) -> int:
        return self.value * self.value


@dataclass(frozen=True)
class FailingJob:
    def run(self):
        raise ValueError("boom")


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        jobs = [SquareJob(i) for i in range(8)]
        assert parallel_map(jobs, max_workers=1) == [i * i for i in range(8)]

    def test_parallel_preserves_order(self):
        jobs = [SquareJob(i) for i in range(8)]
        assert parallel_map(jobs, max_workers=4) == [i * i for i in range(8)]

    def test_serial_and_parallel_agree(self):
        jobs = [SquareJob(i) for i in range(5)]
        assert parallel_map(jobs, max_workers=1) == parallel_map(
            jobs, max_workers=3
        )

    def test_empty_jobs(self):
        assert parallel_map([], max_workers=4) == []

    def test_single_job_runs_in_process(self):
        # A lone job must not pay pool startup; observable via identity
        # of a mutable result (same process ⇒ same object graph).
        class Marker:
            pass

        marker = Marker()

        @dataclass
        class IdentityJob:
            def run(self, _marker=marker):
                return _marker

        (result,) = parallel_map([IdentityJob()], max_workers=4)
        assert result is marker

    def test_worker_exception_names_the_job(self):
        with pytest.raises(JobFailedError, match="boom") as excinfo:
            parallel_map([SquareJob(1), FailingJob()], max_workers=2)
        assert excinfo.value.index == 1
        assert "FailingJob" in excinfo.value.label
        assert "ValueError" in str(excinfo.value)

    def test_serial_exception_names_the_job(self):
        with pytest.raises(JobFailedError, match="boom") as excinfo:
            parallel_map([FailingJob()], max_workers=1)
        assert excinfo.value.index == 0
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_explicit_labels_in_errors(self):
        with pytest.raises(JobFailedError) as excinfo:
            parallel_map(
                [SquareJob(0), FailingJob()],
                max_workers=1,
                labels=["ok", "doomed"],
            )
        assert excinfo.value.label == "doomed"
        assert "doomed" in str(excinfo.value)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            parallel_map([SquareJob(0)], max_workers=1, labels=["a", "b"])

    def test_job_label_uses_describe(self):
        @dataclass(frozen=True)
        class Described:
            def describe(self) -> str:
                return "my-sweep"

            def run(self):
                return None

        assert job_label(Described(), 3) == "my-sweep"
        assert job_label(SquareJob(2), 3) == "SquareJob#3"


class TestDefaultMaxWorkers:
    def test_default_is_serial(self):
        assert default_max_workers() == 1

    def test_set_and_restore(self):
        previous = default_max_workers()
        try:
            set_default_max_workers(3)
            assert default_max_workers() == 3
            jobs = [SquareJob(i) for i in range(3)]
            # None picks up the global default.
            assert parallel_map(jobs) == [0, 1, 4]
        finally:
            set_default_max_workers(previous)

    def test_rejects_non_positive(self):
        with pytest.raises(SimulationError):
            set_default_max_workers(0)

    def test_dram_study_maps_at_the_default(self):
        """``run_fig5_table3`` takes no worker count: it maps its DRAM
        runs at the process default (``--jobs``), on the pool when that
        is above one, with the serial result."""
        from repro.experiments.fig5_table3 import run_fig5_table3

        grid = dict(
            victim_demands=(36.0, 72.0),
            pressure_levels=(48.0,),
            requests=100,
            policies=("fcfs",),
        )
        previous = default_max_workers()
        shutdown_pool()
        try:
            serial = run_fig5_table3(**grid)
            assert pool_size() == 0
            set_default_max_workers(2)
            assert run_fig5_table3(**grid) == serial
            assert pool_size() == 2
        finally:
            set_default_max_workers(previous)
            shutdown_pool()
