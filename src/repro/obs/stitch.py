"""Cross-process trace stitching: one timeline from many processes.

The worker pool (:mod:`repro.perf.pool`) runs simulations in other
processes, and each worker buffers its spans/events in its own
:class:`~repro.obs.events.TraceBuffer`. This module defines the value
objects that carry those buffers back to the coordinator and the clock
alignment that places them on one coherent timeline:

- :class:`WorkerTrace` — one shipped buffer: the records plus the
  anchors needed to align it (picklable: records are frozen dataclasses
  of builtins, so the payload rides the same pipe as
  :class:`~repro.obs.metrics.MetricsSnapshot`);
- :func:`align_workers` — groups chunks by worker process, shifts
  harness-clock records onto the coordinator's timeline, and yields
  one :class:`StitchedWorker` per worker in deterministic order.

**Clock alignment.** Simulated time is absolute per simulation, so
sim-clock records need no adjustment — a worker's ``corun`` span at
sim t=0 means the same thing as the coordinator's. Harness-clock
records are *relative* to their session's start, and every process
starts its session at a different moment. Each process therefore
records an absolute monotonic **anchor**
(:func:`repro.perf.timing.monotonic_anchor`) when its session begins:
each chunk (or job) session records its own activation anchor, and the
coordinator's :class:`~repro.obs.runtime.ObsSession` records one at
construction. The stitcher shifts every worker harness record by
``chunk_anchor - coordinator_anchor``, which is exactly the offset
between the two session starts on the shared monotonic clock. Raw
anchor values never appear in any record — only differences do.

Determinism: which OS process runs which chunk varies run to run, so
workers are *ordered* by the smallest job index they executed (the
chunk's ``first_index``), never by pid or completion order. Merged
traces are therefore stable up to pid/tid relabeling, which
``tests/obs/test_stitch.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Tuple

from repro.obs.events import Event, HARNESS_CLOCK, Span, TraceBuffer


@dataclass(frozen=True)
class WorkerTrace:
    """One worker-side trace buffer shipped back to the coordinator.

    Attributes
    ----------
    worker_pid:
        OS pid of the emitting worker — groups chunks from the same
        warm worker under one stitched process row. Never used for
        ordering (pids are not deterministic across runs).
    anchor:
        Monotonic anchor of the chunk/job session that produced these
        records; harness times are relative to it.
    first_index:
        Smallest job index this buffer covers — the deterministic
        ordering key for stitched output.
    events / spans:
        The shipped records, in emission order.
    """

    worker_pid: int
    anchor: float
    first_index: int
    events: Tuple[Event, ...]
    spans: Tuple[Span, ...]

    def with_first_index(self, index: int) -> "WorkerTrace":
        """Copy with the coordinator-assigned ordering key."""
        return replace(self, first_index=index)


@dataclass(frozen=True)
class StitchedWorker:
    """One worker's aligned records, ready for export.

    ``ordinal`` is the 1-based deterministic worker number (ordered by
    first job index); exporters derive the Chrome-trace pid from it.
    Harness-clock record times are already on the coordinator's
    timeline.
    """

    ordinal: int
    os_pid: int
    events: Tuple[Event, ...]
    spans: Tuple[Span, ...]


def buffer_from_session(
    session_buffer: TraceBuffer,
) -> Tuple[Tuple[Event, ...], Tuple[Span, ...]]:
    """Freeze a live buffer into the picklable shipping shape."""
    return tuple(session_buffer.events), tuple(session_buffer.spans)


def _shift_harness(records: Iterable, offset: float) -> List:
    """Shift harness-clock records by ``offset`` seconds (sim untouched)."""
    shifted = []
    for record in records:
        if record.clock != HARNESS_CLOCK:
            shifted.append(record)
        elif isinstance(record, Span):
            shifted.append(
                replace(
                    record,
                    start=record.start + offset,
                    end=record.end + offset,
                )
            )
        else:
            shifted.append(replace(record, time=record.time + offset))
    return shifted


def align_workers(
    worker_traces: Iterable[WorkerTrace],
    coordinator_anchor: float,
) -> Tuple[StitchedWorker, ...]:
    """Group, align, and deterministically order shipped worker traces.

    Chunks from the same OS process merge into one
    :class:`StitchedWorker`; workers are ordered by the smallest
    ``first_index`` they executed; harness-clock records are shifted by
    each chunk's ``anchor - coordinator_anchor``.
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
            offset = chunk.anchor - coordinator_anchor
            events.extend(_shift_harness(chunk.events, offset))
            spans.extend(_shift_harness(chunk.spans, offset))
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
    process emitted a record — the profiler aggregates over it, and the
    span-set determinism test compares serial and stitched runs through
    it.
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
    "buffer_from_session",
    "merged_buffer",
]
