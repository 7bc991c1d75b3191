"""Picklable units of work for :func:`repro.perf.parallel_map`.

Jobs carry only cheap, immutable descriptions (SoC names, kernel specs,
experiment names); each worker process rebuilds the heavy state (engines,
calibrated models) from the same deterministic constructors the serial
path uses, so results are bit-identical regardless of where a job ran.

Jobs participate in two optional protocols:

- ``describe()`` — a short human-readable label used in progress and
  failure messages (:class:`repro.errors.JobFailedError`);
- ``signature()`` — a canonical string over the job's *full* inputs
  (value objects, not just names), opting the job into the
  content-addressed simulation cache (:mod:`repro.perf.simcache`).
  Jobs with side effects or undeclared inputs return ``None``.

Signature completeness is checked statically: LINT014
(:mod:`repro.lint.effects`) computes the attributes ``run()``
transitively reads and requires each declared field among them to be
hashed by ``signature()`` — or listed in a class-level
``SIGNATURE_INERT`` tuple naming fields that cannot change ``run()``'s
results (labels, progress cosmetics). Prefer the declaration over a
pragma: it is typo-checked and reads as documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.perf.timing import Stopwatch
from repro.workloads.kernel import KernelSpec


@dataclass(frozen=True)
class PressureSweepJob:
    """One victim kernel's full external-pressure sweep on one PU."""

    soc_name: str
    kernel: KernelSpec
    pu_name: str
    levels: Tuple[float, ...]
    pressure_pu: Optional[str] = None

    def describe(self) -> str:
        return f"sweep:{self.soc_name}/{self.pu_name}/{self.kernel.name}"

    def signature(self) -> str:
        """Canonical content signature for the simulation cache.

        Hashes the *resolved* SoC specification (``repr`` of the frozen
        spec dataclasses — PU constants, memory geometry, MC behaviour)
        rather than the SoC's name, so editing a built-in config
        invalidates exactly the entries it should. Float ``repr`` is
        round-trip exact, which makes the string canonical.
        """
        from repro.soc.configs import spec_text

        return repr(
            (
                "pressure_sweep.v1",
                self.soc_name,
                spec_text(self.soc_name),
                repr(self.kernel),
                self.pu_name,
                tuple(self.levels),
                self.pressure_pu,
            )
        )

    def run(self):
        from repro.experiments.common import engine_for
        from repro.profiling.pressure import sweep_pressure

        return sweep_pressure(
            engine_for(self.soc_name),
            self.kernel,
            self.pu_name,
            external_levels=self.levels,
            pressure_pu=self.pressure_pu,
        )


@dataclass(frozen=True)
class ExperimentOutcome:
    """What an :class:`ExperimentJob` sends back to the coordinator.

    ``sim_cache_counts`` are the job's own cache's
    :meth:`~repro.perf.simcache.SimCache.counts` (empty without a
    cache), which the coordinator folds into its cache so the runner's
    ``sim-cache:`` line counts every process. Metrics and trace records
    need no field here: they reach the coordinator through the pool's
    chunk session (:func:`repro.perf.pool.map_on_pool`), or straight
    into its own session when the job runs in-process.
    """

    name: str
    report: str
    elapsed: float
    csv_count: int = 0
    sim_cache_counts: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ExperimentJob:
    """Run one registered experiment end to end (render + optional save).

    Output files are written by the worker itself so the coordinator
    only ships a rendered report string back across the pipe — which is
    also why the job has no ``signature()``: it is not side-effect
    free, so it is never cached as a unit. Instead ``sim_cache_dir``
    opens the coordinator's simulation cache directory for the job's
    duration, and the experiment's internal sweeps are cached at the
    :class:`PressureSweepJob` granularity (shared across experiments).
    That same granularity carries retry and checkpoint semantics: if
    this job is re-run in-process after a worker loss, or the whole
    run is interrupted and restarted under ``runner --checkpoint``, the
    sweeps already stored under ``sim_cache_dir`` are served from disk
    and only the unfinished ones are recomputed — re-running the
    experiment body itself is cheap, idempotent rendering on top of
    those results.
    """

    name: str
    out_dir: Optional[str] = None
    csv: bool = False
    sim_cache_dir: Optional[str] = None

    def describe(self) -> str:
        return f"experiment:{self.name}"

    def run(self) -> ExperimentOutcome:
        from repro.perf.executor import (
            default_max_workers,
            set_default_max_workers,
        )
        from repro.perf.simcache import SimCache, set_sim_cache

        # This job is the unit of parallelism: never fork a nested pool
        # (the forked child inherits the parent's --jobs default). The
        # caller's default comes back afterwards, so a job run in-process
        # leaves later parallel_map calls as they were.
        workers = default_max_workers()
        set_default_max_workers(1)
        try:
            if self.sim_cache_dir is None:
                return self._run()
            # A cache object of the job's own, so its counts ship back in
            # the outcome and are counted once whichever process ran it.
            cache = SimCache(self.sim_cache_dir)
            previous = set_sim_cache(cache)
            try:
                outcome = self._run()
            finally:
                set_sim_cache(previous)
            return replace(outcome, sim_cache_counts=cache.counts())
        finally:
            set_default_max_workers(workers)

    def _run(self) -> ExperimentOutcome:
        from pathlib import Path

        from repro.experiments.runner import get_runner, save_result_csvs

        watch = Stopwatch()
        result = get_runner(self.name)()
        report = result.render()
        elapsed = watch.stop()
        csv_count = 0
        if self.out_dir is not None:
            out_dir = Path(self.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{self.name}.txt").write_text(report + "\n")
            if self.csv:
                csv_count = save_result_csvs(self.name, result, out_dir)
        return ExperimentOutcome(
            name=self.name,
            report=report,
            elapsed=elapsed,
            csv_count=csv_count,
        )
