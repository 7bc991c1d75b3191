"""Cross-process trace stitching: one timeline from many processes.

The worker pool (:mod:`repro.perf.pool`) runs simulations in other
processes, and each worker buffers its spans/events in its own
:class:`~repro.obs.events.TraceBuffer`. This module defines the value
objects that carry those buffers back to the coordinator and the
grouping that gives each worker one process row:

- :class:`WorkerTrace` — one shipped buffer (picklable: records are
  frozen dataclasses of builtins, so the payload rides the same pipe
  as :class:`~repro.obs.metrics.MetricsSnapshot`);
- :func:`align_workers` — groups chunks by worker process and yields
  one :class:`StitchedWorker` per worker in deterministic order.

Records are exported as shipped, with no clock alignment. Simulated
time is absolute per simulation, so a worker's ``corun`` span at sim
t=0 means the same thing as the coordinator's. Harness-clock records
come only from the coordinator (the runner's experiment spans and
``parallel_map``'s dispatch span): a worker pins its own ``--jobs``
default to 1, so it never opens a dispatch span
(``tests/obs/test_stitch.py`` checks this on a pooled sweep).

Determinism: which OS process runs which chunk varies run to run, so
workers are *ordered* by the smallest job index they executed (the
chunk's ``first_index``), never by pid or completion order. Merged
traces are therefore stable up to pid/tid relabeling, which
``tests/obs/test_stitch.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.obs.events import Event, Span, TraceBuffer


@dataclass(frozen=True)
class WorkerTrace:
    """One worker-side trace buffer shipped back to the coordinator.

    Attributes
    ----------
    worker_pid:
        OS pid of the emitting worker — groups chunks from the same
        warm worker under one stitched process row. Never used for
        ordering (pids are not deterministic across runs).
    first_index:
        Smallest job index this buffer covers — the deterministic
        ordering key for stitched output.
    events / spans:
        The shipped records, in emission order.
    """

    worker_pid: int
    first_index: int
    events: Tuple[Event, ...]
    spans: Tuple[Span, ...]


@dataclass(frozen=True)
class StitchedWorker:
    """One worker's records, ready for export.

    ``ordinal`` is the 1-based deterministic worker number (ordered by
    first job index); exporters derive the Chrome-trace pid from it.
    """

    ordinal: int
    os_pid: int
    events: Tuple[Event, ...]
    spans: Tuple[Span, ...]


def align_workers(
    worker_traces: Iterable[WorkerTrace],
) -> Tuple[StitchedWorker, ...]:
    """Group and deterministically order shipped worker traces.

    Chunks from the same OS process merge into one
    :class:`StitchedWorker`, in job-index order; workers are ordered by
    the smallest ``first_index`` they executed.
    """
    by_pid: Dict[int, List[WorkerTrace]] = {}
    for trace in worker_traces:
        by_pid.setdefault(trace.worker_pid, []).append(trace)
    groups = sorted(
        by_pid.values(),
        key=lambda chunks: min(c.first_index for c in chunks),
    )
    stitched: List[StitchedWorker] = []
    for ordinal, chunks in enumerate(groups, start=1):
        events: List[Event] = []
        spans: List[Span] = []
        for chunk in sorted(chunks, key=lambda c: c.first_index):
            events.extend(chunk.events)
            spans.extend(chunk.spans)
        stitched.append(
            StitchedWorker(
                ordinal=ordinal,
                os_pid=chunks[0].worker_pid,
                events=tuple(events),
                spans=tuple(spans),
            )
        )
    return tuple(stitched)


def merged_buffer(
    buffer: TraceBuffer,
    workers: Iterable[StitchedWorker],
) -> TraceBuffer:
    """Coordinator + worker records as one flat buffer.

    The consumer-friendly shape for analyses that do not care which
    process emitted a record — ``pccs trace``'s summary and flat dumps
    read it, and the span-set determinism test compares serial and
    stitched runs through it.
    """
    merged = TraceBuffer(
        events=list(buffer.events), spans=list(buffer.spans)
    )
    for worker in workers:
        merged.events.extend(worker.events)
        merged.spans.extend(worker.spans)
    return merged


__all__ = [
    "StitchedWorker",
    "WorkerTrace",
    "align_workers",
    "merged_buffer",
]
