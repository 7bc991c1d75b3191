"""Process-parallel job execution for the experiment pipeline.

Every headline artifact is a sweep of hundreds of independent co-run
simulations; this module fans them out across cores. A *job* is any
picklable object with a ``run()`` method returning a picklable result
(:mod:`repro.perf.jobs` provides the standard ones). ``parallel_map``
preserves input order and falls back to plain in-process execution for
``max_workers <= 1``, so serial and parallel paths run byte-identical
code on byte-identical inputs — the simulations are pure, deterministic
float math, and the results do not depend on which process computed
them.

Two subsystems cooperate underneath (both invisible in the results):

- the **persistent warm worker pool** (:mod:`repro.perf.pool`): one
  process-global pool reused across every ``parallel_map`` call, with
  chunked order-preserving submission and per-job failure attribution.
  When a worker dies the pool hands back the results that completed,
  and every job not yet delivered when the pool broke runs in-process
  through the same serial loop ``max_workers <= 1`` uses;
- the **content-addressed simulation cache**
  (:mod:`repro.perf.simcache`): when a cache is active, jobs that
  declare a ``signature()`` are looked up before dispatch and each
  result is stored *as it arrives*, so byte-identical re-runs skip the
  simulations entirely and an interrupted sweep resumes from its
  completed jobs.

Failures raise :class:`repro.errors.JobFailedError` carrying the job's
index and label on both the serial and the pool path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Sequence, runtime_checkable

from repro.errors import JobFailedError, SimulationError

#: The worker default is deliberately per-process. The pool initializer
#: pins it to 1 inside every worker so jobs never fork nested pools; the
#: coordinator's copy keeps the CLI's ``--jobs`` value, and that
#: divergence is the whole point.
_DEFAULT_MAX_WORKERS = 1


@runtime_checkable
class Job(Protocol):
    """Anything picklable with a no-argument ``run``."""

    def run(self) -> object: ...


def set_default_max_workers(n: int) -> None:
    """Set the process-global worker default (the CLI's ``--jobs``).

    Experiments consult this when no explicit ``jobs`` argument is
    given, so one flag at the entry point parallelises every sweep
    downstream of it.
    """
    global _DEFAULT_MAX_WORKERS
    if n < 1:
        raise SimulationError(f"max workers must be >= 1, got {n}")
    _DEFAULT_MAX_WORKERS = n


def default_max_workers() -> int:
    """The current process-global worker default (1 = serial)."""
    return _DEFAULT_MAX_WORKERS


def job_label(job: Job, index: int) -> str:
    """Human-readable identity of a job in error messages and reports."""
    method = getattr(job, "describe", None)
    if method is not None:
        return str(method())
    return f"{type(job).__name__}#{index}"


def _run_serial(job: Job, index: int, label: str) -> object:
    try:
        return job.run()
    except JobFailedError:
        raise  # a nested parallel_map already attributed the failure
    except Exception as exc:
        raise JobFailedError(
            f"job {index} ({label}) failed with "
            f"{type(exc).__name__}: {exc}",
            index=index,
            label=label,
        ) from exc


def parallel_map(
    jobs: Iterable[Job],
    max_workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[object]:
    """Run every job and return their results in input order.

    ``max_workers <= 1`` (or a single job to compute) executes in this
    process — the fallback used by default and under nested
    parallelism. Otherwise the jobs are distributed over the persistent
    warm pool (:mod:`repro.perf.pool`); if a worker dies, every job
    not yet delivered when the pool broke is re-run in-process. When a simulation cache is active
    (:func:`repro.perf.simcache.active_sim_cache`), cacheable jobs are
    served from disk and only the misses are executed; results are
    bit-identical on every path. A failing job raises
    :class:`~repro.errors.JobFailedError` naming its index and label.
    """
    from repro.perf.simcache import active_sim_cache

    job_list = list(jobs)
    if max_workers is None:
        max_workers = default_max_workers()
    if labels is not None and len(labels) != len(job_list):
        raise SimulationError(
            f"labels/jobs length mismatch: {len(labels)} != {len(job_list)}"
        )
    label_of = {
        i: (labels[i] if labels is not None else job_label(job, i))
        for i, job in enumerate(job_list)
    }

    results: Dict[int, object] = {}
    keys: Dict[int, str] = {}
    cache = active_sim_cache()
    if cache is not None:
        for i, job in enumerate(job_list):
            key = cache.key_for(job)
            if key is None:
                continue
            keys[i] = key
            found, value = cache.lookup(key)
            if found:
                results[i] = value

    pending = [i for i in range(len(job_list)) if i not in results]

    # Stores are eager — each result is persisted as it arrives, not
    # batched after the sweep — so an interrupted run (Ctrl-C, OOM kill)
    # keeps every completed job and a later run with the same cache
    # directory resumes from them (``runner --sim-cache DIR``).
    def _store_result(i: int, value: object) -> None:
        key = keys.get(i)
        if cache is not None and key is not None:
            cache.store(key, value)

    if max_workers > 1 and len(pending) > 1:
        from repro.obs import runtime as obs_runtime
        from repro.obs.events import HARNESS_CLOCK
        from repro.perf.pool import map_on_pool

        session = obs_runtime.active()
        span = None
        if session.tracer.enabled:
            # Harness-clock span bracketing the whole fan-out, so a
            # stitched timeline shows the coordinator waiting while the
            # worker rows do the simulating.
            span = session.tracer.span(
                "parallel.dispatch",
                start=session.harness_time(),
                track="perf.pool",
                category="harness",
                clock=HARNESS_CLOCK,
                jobs=len(pending),
                workers=max_workers,
            )
        try:
            results.update(
                map_on_pool(
                    [(i, job_list[i]) for i in pending],
                    label_of,
                    max_workers,
                    on_result=_store_result,
                )
            )
        finally:
            if span is not None:
                span.finish(session.harness_time())
                span.close()
    # The one serial loop: ``max_workers <= 1``, a single miss, and
    # every job not yet delivered when the pool broke. An undelivered
    # chunk shipped nothing, so this run is the only copy of its results
    # and metrics.
    for i in pending:
        if i not in results:
            results[i] = _run_serial(job_list[i], i, label_of[i])
            _store_result(i, results[i])
    return [results[i] for i in range(len(job_list))]
