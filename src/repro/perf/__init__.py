"""Performance layer: parallel sweep execution for the experiment stack.

Public surface:

- :func:`parallel_map` — order-preserving process-parallel job map with
  a serial fallback (``max_workers <= 1``), persistent-pool dispatch
  and transparent simulation-cache lookup;
- :func:`set_default_max_workers` / :func:`default_max_workers` — the
  process-global ``--jobs`` default experiments consult;
- :mod:`repro.perf.pool` — the persistent warm worker pool
  (:func:`shutdown_pool`, :func:`pool_size`, :func:`pool_generation`)
  and its worker-loss counters (:func:`recovery_counters`: pools
  discarded after a worker died, undelivered jobs re-run in-process);
- :mod:`repro.perf.simcache` — the content-addressed simulation result
  cache behind ``--sim-cache`` (:class:`SimCache`,
  :func:`activate_sim_cache`, :func:`active_sim_cache`,
  :func:`set_sim_cache`);
- :class:`PressureSweepJob` / :class:`ExperimentJob` — the standard
  picklable jobs fanned out by the sweeps and the experiment runner;
- :func:`wall_clock_seconds` / :class:`Stopwatch` — the sanctioned
  wall-clock access point for harness timing (LINT011 keeps host
  clock reads out of model code).
"""

from repro.perf.executor import (
    Job,
    default_max_workers,
    job_label,
    parallel_map,
    set_default_max_workers,
)
from repro.perf.jobs import ExperimentJob, ExperimentOutcome, PressureSweepJob
from repro.perf.pool import (
    pool_generation,
    pool_size,
    recovery_counters,
    shutdown_pool,
)
from repro.perf.simcache import (
    SimCache,
    activate_sim_cache,
    active_sim_cache,
    set_sim_cache,
)
from repro.perf.timing import Stopwatch, wall_clock_seconds

__all__ = [
    "Job",
    "SimCache",
    "Stopwatch",
    "activate_sim_cache",
    "active_sim_cache",
    "default_max_workers",
    "job_label",
    "parallel_map",
    "pool_generation",
    "pool_size",
    "recovery_counters",
    "set_default_max_workers",
    "set_sim_cache",
    "shutdown_pool",
    "wall_clock_seconds",
    "ExperimentJob",
    "ExperimentOutcome",
    "PressureSweepJob",
]
