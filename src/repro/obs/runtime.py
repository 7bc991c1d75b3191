"""Process-wide observability session management.

Engines are built in many places (experiment modules, cached registries,
worker processes), so instrumentation cannot rely on threading a tracer
argument through every constructor. Instead an :class:`ObsSession` is
*activated* for the duration of a traced run and engines look it up at
the top of each simulation entry point:

    session = runtime.active()          # one call per corun/run
    trace_on = session.tracer.enabled   # one attribute read
    ...
    if trace_on:
        tracer.event(...)

When no session is active the default (null tracer, null metrics) is
returned and every guard is false — the zero-overhead contract. The
lookup itself happens once per *simulation*, never per event step.

Sessions are plain process state (no thread-locals): the experiment
pipeline parallelises with processes, and a pool worker runs each
chunk under a session of its own (:mod:`repro.perf.pool`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from contextlib import contextmanager

from repro.errors import ObsError
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.perf.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.stitch import WorkerTrace


class ObsSession:
    """One observability run: a tracer, a metrics registry, a clock base.

    ``watch`` anchors harness-clock records: harness spans report
    seconds since session activation (via the sanctioned
    :class:`~repro.perf.timing.Stopwatch`), keeping raw host-clock
    values out of every record. ``worker_traces`` accumulates the
    buffers worker processes ship back alongside their metrics
    snapshots; exporters group them per worker via
    :func:`~repro.obs.stitch.align_workers`.
    """

    def __init__(
        self,
        trace: bool = False,
        metrics: bool = False,
    ) -> None:
        self.tracer: "Tracer | NullTracer" = Tracer() if trace else NULL_TRACER
        self.metrics: "MetricsRegistry | NullMetricsRegistry" = (
            MetricsRegistry() if metrics else NULL_METRICS
        )
        self.watch = Stopwatch()
        self.worker_traces: "List[WorkerTrace]" = []

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def harness_time(self) -> float:
        """Seconds since activation, for harness-clock records."""
        return self.watch.elapsed()

    def absorb_worker_trace(self, trace: "WorkerTrace") -> None:
        """Collect one worker-shipped trace buffer for later stitching."""
        self.worker_traces.append(trace)


_DEFAULT = ObsSession(trace=False, metrics=False)

#: The session stack is deliberately per-process. Each pool chunk runs
#: under a worker-side session and ships an immutable snapshot and
#: trace back; the coordinator absorbs them, so worker-side pushes never
#: needing to be visible coordinator-side is the design, not an
#: accident.
_STACK: list = []


def active() -> ObsSession:
    """The innermost active session (the inert default when none is)."""
    return _STACK[-1] if _STACK else _DEFAULT


def activate(session: ObsSession) -> None:
    """Push ``session`` as the process-wide active session.

    Sessions nest and engines see the innermost one. A job that
    ``parallel_map`` runs in-process (``--jobs 1``, or the re-run after
    a worker loss) records straight into the coordinator's session,
    which the pool path reaches by absorbing each chunk's snapshot and
    trace.
    """
    _STACK.append(session)


def deactivate() -> None:
    """Pop the innermost session (no-op back to the inert default)."""
    if not _STACK:
        raise ObsError("no observability session is active")
    _STACK.pop()


@contextmanager
def session(
    trace: bool = False, metrics: bool = False
) -> Iterator[ObsSession]:
    """Activate a fresh session for the duration of a ``with`` block."""
    sess = ObsSession(trace=trace, metrics=metrics)
    activate(sess)
    try:
        yield sess
    finally:
        deactivate()


def tracer_for(explicit: Optional[object]) -> object:
    """Resolve an engine's tracer: explicit override or the active session's.

    Engines call this once per simulation entry so a session activated
    *after* an engine was built (cached engines) still traces it.
    """
    if explicit is not None:
        return explicit
    return active().tracer


__all__ = [
    "ObsSession",
    "activate",
    "active",
    "deactivate",
    "session",
    "tracer_for",
]
