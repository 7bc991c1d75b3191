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

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.metrics import MetricsSnapshot
from repro.obs.stitch import WorkerTrace
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
        from repro.soc.configs import soc_by_name

        spec = soc_by_name(self.soc_name)
        return repr(
            (
                "pressure_sweep.v1",
                self.soc_name,
                repr(spec),
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

    ``metrics_snapshot`` is a plain-tuple value object
    (:class:`repro.obs.metrics.MetricsSnapshot`), so the outcome stays
    picklable (LINT012) and the coordinator can fold snapshots from any
    number of workers with :func:`repro.obs.metrics.merge_snapshots`.
    ``trace`` (when the job ran with ``trace=True``) is the job's whole
    span/event buffer as a :class:`repro.obs.stitch.WorkerTrace` — the
    coordinator stamps the job index via
    :meth:`~repro.obs.stitch.WorkerTrace.with_first_index` before
    stitching, since the worker does not know it.
    """

    name: str
    report: str
    elapsed: float
    csv_count: int = 0
    metrics_snapshot: Optional[MetricsSnapshot] = None
    trace: Optional[WorkerTrace] = None


@dataclass(frozen=True)
class ExperimentJob:
    """Run one registered experiment end to end (render + optional save).

    Output files are written by the worker itself so the coordinator
    only ships a rendered report string back across the pipe — which is
    also why the job has no ``signature()``: it is not side-effect
    free, so it is never cached as a unit. Instead ``sim_cache_dir``
    re-activates the coordinator's simulation cache inside the worker,
    and the experiment's internal sweeps are cached at the
    :class:`PressureSweepJob` granularity (shared across experiments).
    That same granularity carries retry and checkpoint semantics: if
    this job is re-run in-process after a worker loss, or the whole
    run is interrupted and restarted under ``runner --checkpoint``, the
    sweeps already stored under ``sim_cache_dir`` are served from disk
    and only the unfinished ones are recomputed — re-running the
    experiment body itself is cheap, idempotent rendering on top of
    those results.

    With ``metrics=True`` the worker activates its own observability
    session and returns the registry snapshot in the outcome; with
    ``trace=True`` the session also buffers spans/events, shipped back
    as the outcome's :class:`~repro.obs.stitch.WorkerTrace`. The job
    owns its whole session (rather than riding the pool chunk session)
    because one experiment is the natural stitching unit when whole
    experiments are the jobs being fanned out.
    """

    name: str
    out_dir: Optional[str] = None
    csv: bool = False
    metrics: bool = False
    trace: bool = False
    sim_cache_dir: Optional[str] = None

    def describe(self) -> str:
        return f"experiment:{self.name}"

    def run(self) -> ExperimentOutcome:
        import os
        from pathlib import Path

        from repro.experiments.runner import get_runner, save_result_csvs
        from repro.perf.executor import set_default_max_workers
        from repro.perf.simcache import activate_sim_cache

        # This job is the unit of parallelism: never fork a nested pool
        # (the forked child inherits the parent's --jobs default).
        set_default_max_workers(1)
        if self.sim_cache_dir is not None:
            activate_sim_cache(self.sim_cache_dir)
        watch = Stopwatch()
        snapshot: Optional[MetricsSnapshot] = None
        trace: Optional[WorkerTrace] = None
        if self.metrics or self.trace:
            from repro.obs import runtime as obs_runtime
            from repro.obs.runtime import ObsSession
            from repro.obs.stitch import buffer_from_session

            session = ObsSession(trace=self.trace, metrics=self.metrics)
            obs_runtime.activate(session)
            try:
                result = get_runner(self.name)()
            finally:
                obs_runtime.deactivate()
            if self.metrics:
                snapshot = session.metrics.snapshot()
            if self.trace:
                events, spans = buffer_from_session(session.tracer.buffer)
                trace = WorkerTrace(
                    worker_pid=os.getpid(),
                    anchor=session.anchor,
                    first_index=0,
                    events=events,
                    spans=spans,
                )
        else:
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
            metrics_snapshot=snapshot,
            trace=trace,
        )
