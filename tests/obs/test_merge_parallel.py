"""Multiprocess metric aggregation: serial == parallel, any partition.

Each job runs a self-contained DRAM simulation under its own metrics
session and returns the snapshot — the same shape a pool chunk ships
back to the coordinator. Because absorbing snapshots is associative
and commutative, folding the per-job snapshots must give the same
totals whether the jobs ran in this process (``parallel_map``
fallback), across worker processes, or all inside one shared session.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.dram.system import CMPSystem
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.runtime import ObsSession
from repro.perf import parallel_map

_CONFIGS = (
    ("frfcfs", 12.0, 150),
    ("sms", 24.0, 150),
    ("tcm", 18.0, 150),
)


def _simulate(policy: str, demand_gbps: float, requests: int) -> None:
    system = CMPSystem(policy=policy, seed=1)
    cores = system.group_configs(demand_gbps, n_cores=2,
                                 requests_per_core=requests)
    system.run(cores)


@dataclass(frozen=True)
class DramMetricsJob:
    """Picklable job: one DRAM run under a private metrics session."""

    policy: str
    demand_gbps: float
    requests: int

    def run(self) -> MetricsSnapshot:
        session = ObsSession(trace=False, metrics=True)
        obs_runtime.activate(session)
        try:
            _simulate(self.policy, self.demand_gbps, self.requests)
        finally:
            obs_runtime.deactivate()
        return session.metrics.snapshot()


def _jobs():
    return [DramMetricsJob(*config) for config in _CONFIGS]


def _absorbed(snapshots) -> MetricsSnapshot:
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.absorb(snapshot)
    return registry.snapshot()


class TestMergeEquivalence:
    def test_serial_and_parallel_map_agree(self):
        serial = parallel_map(_jobs(), max_workers=1)
        parallel = parallel_map(_jobs(), max_workers=2)
        assert _absorbed(serial) == _absorbed(parallel)

    def test_per_job_sessions_match_one_shared_session(self):
        per_job = _absorbed(parallel_map(_jobs(), max_workers=1))
        shared = ObsSession(trace=False, metrics=True)
        obs_runtime.activate(shared)
        try:
            for config in _CONFIGS:
                _simulate(*config)
        finally:
            obs_runtime.deactivate()
        assert shared.metrics.snapshot() == per_job

    def test_jobs_are_picklable(self):
        for job in _jobs():
            assert pickle.loads(pickle.dumps(job)) == job

    def test_snapshots_carry_the_dram_instrumentation(self):
        snapshot = DramMetricsJob("frfcfs", 12.0, 150).run()
        names = [name for name, _ in snapshot.counters]
        assert "dram.requests" in names
        assert "dram.runs" in names
        assert snapshot.counter_value("dram.requests") > 0
        histogram_names = [name for name, *_ in snapshot.histograms]
        assert "dram.latency_ns" in histogram_names
