"""Persistent warm worker pool for :func:`repro.perf.parallel_map`.

PR 1's executor paid a cold ``ProcessPoolExecutor`` spawn for every
``parallel_map`` call and threw the workers (and every engine/profile
cache they had built) away afterwards. This module keeps one
process-global pool alive for the whole run:

- **lazily created, atexit-managed** — the pool spins up on the first
  parallel call and is torn down at interpreter exit (or explicitly via
  :func:`shutdown_pool`); consecutive sweeps reuse the same warm
  workers;
- **warm workers** — the pool initializer pins the worker's own
  ``--jobs`` default to 1 (no nested pools); the shared engine
  registry (:func:`repro.experiments.common.engine_for`) builds each
  engine on a worker's first use and keeps it, so standalone profiles
  and steady-state resolve caches accumulate across every job a worker
  ever runs instead of being rebuilt from zero per call;
- **chunked, order-preserving submission** — jobs are grouped into
  adaptively sized chunks (fewer pickles and IPC round trips than one
  future per job) and results are reassembled in input order;
- **per-job failure capture** — a worker wraps each job individually
  and ships back the failing job's index, label, and traceback text;
  the coordinator cancels outstanding chunks and raises
  :class:`repro.errors.JobFailedError` without orphaning the pool;
- **worker loss** — a SIGKILLed/OOM-killed worker
  (``BrokenProcessPool``) does not abort the sweep: the broken pool is
  discarded, the loss is counted (:func:`recovery_counters`, mirrored
  into ``repro.obs`` as ``pool.rebuilds`` and ``jobs.retried``), and
  :func:`map_on_pool` returns the results of the chunks that did
  complete. A dead worker fails every undelivered chunk, not only its
  own, and :func:`repro.perf.parallel_map` runs all the missing jobs
  in-process with its serial loop; the next call builds a fresh pool;
- **exact metrics** — when the coordinator has an active metrics
  session, each chunk runs under a worker-side session and returns a
  :class:`repro.obs.metrics.MetricsSnapshot` that the coordinator
  absorbs, so ``repro.obs`` counters match the serial path exactly;
- **trace shipping** — when the coordinator has an active *trace*
  session, each chunk also buffers spans/events worker-side and ships
  them back as a :class:`repro.obs.stitch.WorkerTrace` riding the same
  outcome payload as the metrics snapshot; the coordinator absorbs them
  into its session for cross-process stitching
  (:func:`repro.obs.stitch.align_workers`). This chunk session is the
  only way a worker's metrics and trace records reach the coordinator,
  whatever the job.

Results are bit-identical to the serial path by contract: jobs are
pure, deterministic float math and do not depend on which process (or
how warm a process) computed them. A lost chunk ships nothing — its
results, snapshot and trace die with the worker — so the in-process
re-run of its jobs is the only copy ever delivered or absorbed.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import JobFailedError, SimulationError
from repro.obs.metrics import MetricsSnapshot
from repro.obs.stitch import WorkerTrace

if TYPE_CHECKING:
    from repro.obs.runtime import ObsSession

#: Target chunks per worker: small enough to amortise IPC, large enough
#: to keep every worker busy when job costs are uneven.
_CHUNKS_PER_WORKER = 4

#: The pool globals and the recovery counters below are deliberately
#: per-process. The pool handle never survives a fork (``get_pool``
#: drops inherited handles), and the recovery counters describe the
#: pools *this* process dispatched to.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_PID = -1
_POOL_GENERATION = 0

#: Cumulative worker-loss activity in this process, for the runner's
#: stderr note and for tests that run without a metrics session. The
#: same events are mirrored into the active ``repro.obs`` registry.
_RECOVERY_COUNTERS: Dict[str, int] = {}


@dataclass(frozen=True)
class _JobFailure:
    """Picklable description of one failed job, shipped coordinator-side."""

    index: int
    label: str
    exc_type: str
    message: str
    traceback_text: str


@dataclass(frozen=True)
class _ChunkOutcome:
    """One worker chunk's payload: results, first failure, metrics, trace."""

    results: Tuple[Tuple[int, object], ...]
    failure: Optional[_JobFailure]
    snapshot: Optional[MetricsSnapshot]
    trace: Optional[WorkerTrace]


def _warm_worker() -> None:
    """Pool initializer: run once in every worker process."""
    from repro.perf.executor import set_default_max_workers

    # This worker is the unit of parallelism — never fork a nested pool.
    set_default_max_workers(1)


def _run_chunk(
    indexed_jobs: Sequence[Tuple[int, object]],
    labels: Sequence[str],
    collect_metrics: bool,
    collect_trace: bool = False,
) -> _ChunkOutcome:
    """Run one chunk of (index, job) pairs inside a worker.

    Failures stop the chunk at the failing job (fail fast) and are
    returned as data rather than raised — raising would lose the job
    index and, for unpicklable exception types, poison the pool.
    """
    import traceback as tb

    session = None
    if collect_metrics or collect_trace:
        from repro.obs import runtime as obs_runtime
        from repro.obs.runtime import ObsSession

        session = ObsSession(trace=collect_trace, metrics=collect_metrics)
        obs_runtime.activate(session)
    results: List[Tuple[int, object]] = []
    failure: Optional[_JobFailure] = None
    try:
        for (index, job), label in zip(indexed_jobs, labels):
            try:
                results.append((index, job.run()))
            except Exception as exc:  # noqa: BLE001 - shipped as data
                failure = _JobFailure(
                    index=index,
                    label=label,
                    exc_type=type(exc).__name__,
                    message=str(exc),
                    traceback_text=tb.format_exc(),
                )
                break
    finally:
        if session is not None:
            from repro.obs import runtime as obs_runtime

            obs_runtime.deactivate()
    snapshot = (
        session.metrics.snapshot()
        if session is not None and collect_metrics
        else None
    )
    trace = None
    if session is not None and collect_trace:
        buffer = session.tracer.buffer
        trace = WorkerTrace(
            worker_pid=os.getpid(),
            first_index=min(index for index, _ in indexed_jobs),
            events=tuple(buffer.events),
            spans=tuple(buffer.spans),
        )
    return _ChunkOutcome(
        results=tuple(results),
        failure=failure,
        snapshot=snapshot,
        trace=trace,
    )


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
def get_pool(max_workers: int) -> ProcessPoolExecutor:
    """The persistent pool, created (or grown) to ``max_workers``.

    A pool with at least ``max_workers`` workers is reused as-is —
    shrinking would discard warm caches for no benefit. A forked child
    process never reuses its parent's pool handle.
    """
    global _POOL, _POOL_WORKERS, _POOL_PID, _POOL_GENERATION
    if max_workers < 1:
        raise SimulationError(f"pool workers must be >= 1, got {max_workers}")
    if _POOL is not None and _POOL_PID != os.getpid():
        # Inherited across a fork: the executor belongs to the parent.
        _POOL = None
        _POOL_WORKERS = 0
    if _POOL is not None and _POOL_WORKERS < max_workers:
        shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            max_workers=max_workers, initializer=_warm_worker
        )
        _POOL_WORKERS = max_workers
        _POOL_PID = os.getpid()
        _POOL_GENERATION += 1
    return _POOL


def shutdown_pool(wait: bool = True) -> None:
    """Tear the persistent pool down.

    Explicit callers get the blocking shutdown (workers have fully
    exited when this returns — what tests rely on between pool
    generations). The atexit path, Ctrl-C and worker loss pass
    ``wait=False``: a worker wedged in C code or killed mid-syscall
    must not be able to hang the coordinator or interpreter exit.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_PID == os.getpid():
        _POOL.shutdown(wait=wait, cancel_futures=True)
    _POOL = None
    _POOL_WORKERS = 0


def _shutdown_pool_atexit() -> None:
    """Interpreter-exit hook: never block on a possibly-wedged worker."""
    shutdown_pool(wait=False)


def pool_size() -> int:
    """Workers in the live pool (0 when no pool exists in this process)."""
    if _POOL is None or _POOL_PID != os.getpid():
        return 0
    return _POOL_WORKERS


def pool_generation() -> int:
    """How many pools this process has created (tests assert reuse)."""
    return _POOL_GENERATION


def recovery_counters() -> Dict[str, int]:
    """Copy of this process's cumulative worker-loss counters.

    ``pool.rebuilds`` counts pools discarded after a worker died;
    ``jobs.retried`` counts the undelivered jobs handed back for an
    in-process re-run. The same names are mirrored into ``repro.obs``; the dict is
    empty until a worker has actually been lost. Callers wanting a
    per-sweep figure diff two copies.
    """
    return dict(_RECOVERY_COUNTERS)


atexit.register(_shutdown_pool_atexit)


# ----------------------------------------------------------------------
# Chunked map
# ----------------------------------------------------------------------
def _chunk_size(n_jobs: int, workers: int) -> int:
    """Adaptive chunk size: ~``_CHUNKS_PER_WORKER`` chunks per worker."""
    return max(1, -(-n_jobs // (workers * _CHUNKS_PER_WORKER)))


def _raise_failure(failure: _JobFailure) -> None:
    raise JobFailedError(
        f"job {failure.index} ({failure.label}) failed with "
        f"{failure.exc_type}: {failure.message}\n"
        f"worker traceback:\n{failure.traceback_text}",
        index=failure.index,
        label=failure.label,
    )


def _count(name: str, amount: int, session: "ObsSession") -> None:
    """Record worker-loss activity: process counter + obs mirror."""
    _RECOVERY_COUNTERS[name] = _RECOVERY_COUNTERS.get(name, 0) + amount
    if session.metrics.enabled:
        session.metrics.counter(name).inc(amount)


def map_on_pool(
    indexed_jobs: Sequence[Tuple[int, object]],
    labels: Dict[int, str],
    max_workers: int,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> Dict[int, object]:
    """Run (index, job) pairs on the persistent pool; results by index.

    Dispatches once. ``on_result`` fires exactly once per job as its
    result arrives (the checkpoint hook: results persisted eagerly
    survive a later interrupt).

    Raises :class:`~repro.errors.JobFailedError` on the first *failed*
    job (the job itself raised), after cancelling chunks that have not
    started; the pool stays alive for the next call. A lost worker
    (``BrokenProcessPool``) raises nothing: the pool is discarded, the
    loss counted, and the results of the chunks that completed are
    returned — the caller runs the missing indices itself
    (:func:`repro.perf.parallel_map` does so in-process).
    """
    from repro.obs import runtime as obs_runtime

    session = obs_runtime.active()
    collect_metrics = session.metrics.enabled
    collect_trace = session.tracer.enabled
    results: Dict[int, object] = {}
    failure: Optional[_JobFailure] = None
    pending: Set["Future[_ChunkOutcome]"] = set()
    broken = False

    def _absorb(future: "Future[_ChunkOutcome]") -> None:
        nonlocal failure, broken
        try:
            outcome = future.result()
        except BrokenProcessPool:
            broken = True
            return
        except CancelledError:
            return
        for index, value in outcome.results:
            results[index] = value
            if on_result is not None:
                on_result(index, value)
        if outcome.snapshot is not None:
            session.metrics.absorb(outcome.snapshot)
        if outcome.trace is not None:
            session.absorb_worker_trace(outcome.trace)
        if outcome.failure is not None and failure is None:
            failure = outcome.failure

    try:
        workers = min(max_workers, len(indexed_jobs))
        pool = get_pool(workers)
        size = _chunk_size(len(indexed_jobs), workers)
        for start in range(0, len(indexed_jobs), size):
            chunk = indexed_jobs[start : start + size]
            try:
                pending.add(
                    pool.submit(
                        _run_chunk,
                        chunk,
                        [labels[index] for index, _ in chunk],
                        collect_metrics,
                        collect_trace,
                    )
                )
            except BrokenProcessPool:
                broken = True
                break
        while pending and failure is None and not broken:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                _absorb(future)
        if broken:
            # Keep chunks that completed while the pool was collapsing:
            # their results are real and count. The rest ship nothing.
            for future in pending:
                if future.done():
                    _absorb(future)
            shutdown_pool(wait=False)
            _count("pool.rebuilds", 1, session)
            lost = len(indexed_jobs) - len(results)
            if failure is None and lost:
                _count("jobs.retried", lost, session)
        for future in pending:
            future.cancel()
    except BaseException:  # pool machinery broke, or Ctrl-C
        for future in pending:
            future.cancel()
        # A broken pool cannot be reused; drop it without blocking on
        # possibly-wedged workers so the next parallel_map (or the
        # interpreter exit underway) starts clean.
        shutdown_pool(wait=False)
        raise
    if failure is not None:
        _raise_failure(failure)
    return results


__all__ = [
    "get_pool",
    "map_on_pool",
    "pool_generation",
    "pool_size",
    "recovery_counters",
    "shutdown_pool",
]
