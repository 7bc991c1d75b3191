"""Cross-process trace stitching: grouping, ordering, determinism.

The unit tests pin the grouping rules (chunks of one pid merge in job
index order, sim records never move, workers order by first job index
— never by pid). The integration tests run the same simulations
serially and through the warm worker pool and require the merged
sim-clock span set to be *identical* — the stitched trace is the
serial trace, just attributed to more pids — and require that workers
ship no harness-clock records, which is why no clock alignment exists.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.dram.system import CMPSystem
from repro.obs import runtime as obs_runtime
from repro.obs.events import Event, HARNESS_CLOCK, SIM_CLOCK, Span, TraceBuffer
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.runtime import ObsSession
from repro.obs.stitch import (
    StitchedWorker,
    WorkerTrace,
    align_workers,
    merged_buffer,
)
from repro.perf import parallel_map

_CONFIGS = (
    ("frfcfs", 12.0, 120),
    ("sms", 24.0, 120),
    ("tcm", 18.0, 120),
    ("frfcfs", 30.0, 120),
)


def _simulate(policy: str, demand_gbps: float, requests: int) -> None:
    system = CMPSystem(policy=policy, seed=1)
    cores = system.group_configs(demand_gbps, n_cores=2,
                                 requests_per_core=requests)
    system.run(cores)


@dataclass(frozen=True)
class DramTraceJob:
    """Picklable job that relies on the *chunk* session for tracing."""

    policy: str
    demand_gbps: float
    requests: int

    def run(self) -> str:
        _simulate(self.policy, self.demand_gbps, self.requests)
        return self.policy


def _jobs():
    return [DramTraceJob(*config) for config in _CONFIGS]


def _sim_event(name, time, **args):
    from repro.obs.events import freeze_args

    return Event(name=name, time=time, track="t", category="c",
                 args=freeze_args(args), clock=SIM_CLOCK)


def _sim_span(start, end):
    return Span(name="ss", start=start, end=end, track="t",
                category="c", args=(), clock=SIM_CLOCK, depth=0)


def _harness_span(start, end):
    return Span(name="hs", start=start, end=end, track="t",
                category="c", args=(), clock=HARNESS_CLOCK, depth=0)


def _trace(pid, first_index, events=(), spans=()):
    return WorkerTrace(worker_pid=pid, first_index=first_index,
                       events=tuple(events), spans=tuple(spans))


class TestAlignWorkers:
    def test_orders_by_first_index_not_pid(self):
        high_pid_first_job = _trace(99999, 0)
        low_pid_later_job = _trace(11, 1)
        stitched = align_workers([low_pid_later_job, high_pid_first_job])
        assert [w.os_pid for w in stitched] == [99999, 11]
        assert [w.ordinal for w in stitched] == [1, 2]

    def test_chunks_from_one_pid_merge_in_index_order(self):
        second = _trace(7, 3, events=[_sim_event("b", 0.0)])
        first = _trace(7, 0, events=[_sim_event("a", 0.0)])
        (worker,) = align_workers([second, first])
        assert [e.name for e in worker.events] == ["a", "b"]

    def test_sim_records_are_never_shifted(self):
        event = _sim_event("e", 1.25)
        span = _sim_span(0.5, 2.5)
        (worker,) = align_workers([_trace(7, 0, [event], [span])])
        assert worker.events == (event,)
        assert worker.spans == (span,)

    def test_worker_traces_are_picklable(self):
        trace = _trace(7, 0, events=[_sim_event("e", 0.0, k=1)],
                       spans=[_harness_span(0.0, 1.0)])
        assert pickle.loads(pickle.dumps(trace)) == trace


class TestMergedBuffer:
    def test_concatenates_coordinator_and_workers(self):
        base = TraceBuffer(events=[_sim_event("local", 0.0)], spans=[])
        worker = StitchedWorker(
            ordinal=1, os_pid=7,
            events=(_sim_event("remote", 1.0),),
            spans=(_harness_span(0.0, 1.0),),
        )
        merged = merged_buffer(base, [worker])
        assert [e.name for e in merged.events] == ["local", "remote"]
        assert len(merged.spans) == 1
        # The source buffer is not mutated.
        assert len(base.events) == 1 and len(base.spans) == 0


def _sim_span_set(buffer):
    return sorted(
        (s.name, s.track, s.start, s.end, s.depth, s.category, s.args)
        for s in buffer.spans
        if s.clock == SIM_CLOCK
    )


def _sim_event_set(buffer):
    return sorted(
        (e.name, e.track, e.time, e.category, e.args)
        for e in buffer.events
        if e.clock == SIM_CLOCK
    )


class TestSerialParallelDeterminism:
    """Serial and pooled runs emit the same sim-clock records."""

    def _run_serial(self):
        session = ObsSession(trace=True, metrics=False)
        obs_runtime.activate(session)
        try:
            for config in _CONFIGS:
                _simulate(*config)
        finally:
            obs_runtime.deactivate()
        return session.tracer.buffer

    def _run_pooled(self, max_workers):
        session = ObsSession(trace=True, metrics=False)
        obs_runtime.activate(session)
        try:
            parallel_map(_jobs(), max_workers=max_workers)
        finally:
            obs_runtime.deactivate()
        workers = align_workers(session.worker_traces)
        return session, workers

    def test_pooled_span_set_matches_serial(self):
        serial = self._run_serial()
        session, workers = self._run_pooled(max_workers=2)
        merged = merged_buffer(session.tracer.buffer, workers)
        assert _sim_span_set(merged) == _sim_span_set(serial)
        assert _sim_event_set(merged) == _sim_event_set(serial)
        # The records genuinely came from shipped worker buffers, not
        # from the coordinator tracing locally.
        assert workers, "pool shipped no worker traces"
        assert sum(len(w.spans) for w in workers) > 0

    def test_stitched_export_is_schema_valid(self):
        session, workers = self._run_pooled(max_workers=2)
        payload = to_chrome_trace(session.tracer.buffer, workers=workers)
        assert validate_chrome_trace(payload) == []
        pids = {e["pid"] for e in payload["traceEvents"]}
        # At least one worker pid row beyond the coordinator's 1/2.
        assert any(pid >= 10 for pid in pids)


class TestWorkerClocks:
    def test_workers_ship_no_harness_records(self):
        """Workers pin their own ``--jobs`` to 1, so nothing they run
        opens a harness-clock span: every shipped record is on the
        simulated clock and needs no alignment."""
        from repro.experiments.fig8_11 import run_validation

        session = ObsSession(trace=True, metrics=False)
        obs_runtime.activate(session)
        try:
            run_validation(
                "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=2
            )
        finally:
            obs_runtime.deactivate()
        shipped = [
            record
            for trace in session.worker_traces
            for record in trace.events + trace.spans
        ]
        assert shipped, "pool shipped no worker records"
        assert [r for r in shipped if r.clock == HARNESS_CLOCK] == []
