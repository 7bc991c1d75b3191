"""Picklable units of work for :func:`repro.perf.parallel_map`.

Jobs carry only cheap, immutable descriptions (SoC names, kernel specs,
DRAM core configurations); each worker process rebuilds the heavy state
(engines, simulators) from the same deterministic constructors the
serial path uses, so results are bit-identical regardless of where a job
ran.

Jobs participate in two optional protocols:

- ``describe()`` — a short human-readable label used in progress and
  failure messages (:class:`repro.errors.JobFailedError`);
- ``signature()`` — a canonical string over the job's *full* inputs
  (value objects, not just names), opting the job into the
  content-addressed simulation cache (:mod:`repro.perf.simcache`).
  Jobs with side effects or undeclared inputs return ``None``.

The cache and pool contracts are checked by running them, in
``tests/perf/test_simcache.py``: every class here that defines
``signature()`` must be a frozen dataclass (``run()`` executes on a
pickled copy under the pool, so it cannot keep state on the job), and
replacing any one of its fields must change its signature.
``tests/perf/test_pool.py`` requires pooled runs to give the serial
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

if TYPE_CHECKING:
    # Annotations only: importing them would load the SoC model into
    # the DRAM study, which never runs it.
    from repro.dram.cores import CoreConfig
    from repro.dram.system import SimResult
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
        from repro.soc.configs import spec_text

        return repr(
            (
                "pressure_sweep.v1",
                self.soc_name,
                spec_text(self.soc_name),
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
class DramRunJob:
    """One run of the default DDR4-3200 CMP DRAM simulator.

    ``CMPSystem.run`` builds its scheduler from ``policy`` and ``seed``
    on every call, so a run depends on nothing but these fields: the
    §2.3 study's runs may execute in any process and any order.
    """

    policy: str
    seed: int
    cores: Tuple[CoreConfig, ...]
    stop_cores: Optional[FrozenSet[int]] = None

    def describe(self) -> str:
        return f"dram:{self.policy}/{len(self.cores)} cores"

    def signature(self) -> str:
        """Canonical content signature for the simulation cache.

        The core configs are frozen dataclasses of ints, floats and
        (for trace-driven cores) frozen traces, so their ``repr`` is
        exact; the stop cores are sorted, since a set's order is not.
        """
        stop = None if self.stop_cores is None else sorted(self.stop_cores)
        return repr(("dram_run.v1", self.policy, self.seed, self.cores, stop))

    def run(self) -> SimResult:
        from repro.dram.system import CMPSystem

        system = CMPSystem(policy=self.policy, seed=self.seed)
        return system.run(self.cores, stop_cores=self.stop_cores)
