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
- :class:`PressureSweepJob` / :class:`DramRunJob` — the standard
  picklable jobs: one SoC pressure sweep, one DRAM simulator run;
- :func:`wall_clock_seconds` / :class:`Stopwatch` — the sanctioned
  wall-clock access point for harness timing (LINT011 keeps host
  clock reads out of model code).

The names below are bound on first access (PEP 562): the observability
session imports :mod:`repro.perf.timing` on every run, and that must
not load the pool, the jobs or the cache.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # The same names, for type checkers (``X as X`` re-exports them
    # under mypy --strict); tests/test_import_closure.py keeps this
    # block and the table below equal.
    from repro.perf.executor import (
        Job as Job,
        default_max_workers as default_max_workers,
        job_label as job_label,
        parallel_map as parallel_map,
        set_default_max_workers as set_default_max_workers,
    )
    from repro.perf.jobs import (
        DramRunJob as DramRunJob,
        PressureSweepJob as PressureSweepJob,
    )
    from repro.perf.pool import (
        pool_generation as pool_generation,
        pool_size as pool_size,
        recovery_counters as recovery_counters,
        shutdown_pool as shutdown_pool,
    )
    from repro.perf.simcache import (
        SimCache as SimCache,
        activate_sim_cache as activate_sim_cache,
        active_sim_cache as active_sim_cache,
        set_sim_cache as set_sim_cache,
    )
    from repro.perf.timing import (
        Stopwatch as Stopwatch,
        wall_clock_seconds as wall_clock_seconds,
    )

#: Each defining module and the public names it contributes (LINT018
#: resolves every entry to its definition).
_LAZY_EXPORTS = {
    "repro.perf.executor": (
        "Job",
        "default_max_workers",
        "job_label",
        "parallel_map",
        "set_default_max_workers",
    ),
    "repro.perf.jobs": ("DramRunJob", "PressureSweepJob"),
    "repro.perf.pool": (
        "pool_generation",
        "pool_size",
        "recovery_counters",
        "shutdown_pool",
    ),
    "repro.perf.simcache": (
        "SimCache",
        "activate_sim_cache",
        "active_sim_cache",
        "set_sim_cache",
    ),
    "repro.perf.timing": ("Stopwatch", "wall_clock_seconds"),
}

__all__ = sorted(name for names in _LAZY_EXPORTS.values() for name in names)


def __getattr__(name: str) -> object:
    for module, names in _LAZY_EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
