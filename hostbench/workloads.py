"""The benchmark's three workloads, each loading a different layer of ``repro``.

A workload is set up once from the seed, then runs passes. A pass is
``prepare`` (untimed: reset state), ``execute`` (timed: only calls into
the program's public entry points) and ``finish`` (untimed: digest and
check the outputs). An *op* is one DRAM simulation, one artifact or one
sweep job; ``finish`` names every op attempted and the ones that failed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass produced, for the run's checks and reports."""

    #: Every op the pass attempted, in order.
    ops: List[str]
    #: Output digest per op that produced an output.
    digests: Dict[str, str]
    #: Ops that raised or failed one of the workload's own checks.
    failed: Dict[str, str]
    #: Exact counts of simulated work; every pass must repeat them.
    counts: Dict[str, int]
    #: Simulated results and workload properties (not timed).
    values: Dict[str, object] = field(default_factory=dict)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class DramPolicy:
    """``run_fig5_table3`` on a reduced grid, all five policies, serially.

    The grid straddles the 102.4 GB/s DDR4-3200 peak (victim plus
    pressure from 40 to 160 GB/s), so Table 3's saturated statistics are
    sampled. The seed is the TCM/SMS scheduler seed.
    """

    name = "dram_policy"
    seed_dependent = True
    VICTIMS = (30.0, 90.0)
    PRESSURES = (10.0, 30.0, 50.0, 70.0)
    REQUESTS = 200

    def setup(self, seed: int) -> None:
        from repro.experiments import fig5_table3

        self._fig5 = fig5_table3
        self.seed = seed
        self._sims: list = []

    def count_hooks(self) -> Dict[str, tuple]:
        return {"repro.dram.system:CMPSystem.run": (None, self._on_run)}

    def _on_run(self, args, kwargs, result, state) -> None:
        self._sims.append(result)

    def prepare(self, workers: Optional[int] = None) -> None:
        self._sims = []
        self._result = None
        self._report = ""
        self._error: Optional[str] = None

    def execute(self) -> None:
        try:
            self._result = self._fig5.run_fig5_table3(
                victim_demands=self.VICTIMS,
                pressure_levels=self.PRESSURES,
                requests=self.REQUESTS,
                seed=self.seed,
            )
            self._report = self._result.render()
        except Exception as exc:  # noqa: BLE001 - reported as failed ops
            self._error = _error(exc)

    def finish(self) -> PassResult:
        n_sims = (
            len(self._fig5.POLICIES)
            * len(self.VICTIMS)
            * (1 + len(self.PRESSURES))
        )
        ops = [f"sim{i:02d}" for i in range(n_sims)] + ["fig5_table3"]
        if self._error is not None:
            return PassResult(ops, {}, {op: self._error for op in ops}, {})
        digests = {
            f"sim{i:02d}": digest(repr(sim)) for i, sim in enumerate(self._sims)
        }
        digests["fig5_table3"] = digest(self._report)
        failed = {op: "no output" for op in ops if op not in digests}
        problems = self._shape_problems()
        if problems:
            failed.update({op: "; ".join(problems) for op in ops})
        counts = {
            "simulations": len(self._sims),
            "dram.requests": sum(
                core.completed for sim in self._sims for core in sim.cores
            ),
        }
        return PassResult(ops, digests, failed, counts)

    def _shape_problems(self) -> List[str]:
        """Table 3's RBH ordering and Fig 5's ATLAS shape."""
        problems = []
        rbh = {s.policy: s.row_hit_rate for s in self._result.stats}
        if max(rbh, key=rbh.get) != "frfcfs":
            problems.append(f"FR-FCFS is not the highest RBH: {rbh}")
        if min(rbh, key=rbh.get) != "fcfs":
            problems.append(f"FCFS is not the lowest RBH: {rbh}")
        curves = self._result.policy_series("atlas")
        light, heavy = curves[0].y, curves[-1].y
        if min(light) <= 0.8:
            problems.append(f"ATLAS light victim drops to {min(light):.3f}")
        drops = [a - b for a, b in zip(heavy, heavy[1:])]
        if heavy[0] - heavy[-1] < 0.2 or drops[-1] > 0.5 * max(drops):
            problems.append(
                f"ATLAS heavy victim does not drop then flatten: {heavy}"
            )
        return problems


class SocArtifacts:
    """Every registered experiment but the DRAM study, rendered, serially.

    The engine and calibration registries are cleared before each pass,
    so a pass starts the way one ``runner`` invocation does. The
    artifacts take no seed.
    """

    name = "soc_artifacts"
    seed_dependent = False
    VALIDATION = ("fig8", "fig9", "fig10", "fig11")

    def setup(self, seed: int) -> None:
        from repro.experiments import common, runner

        self._common = common
        self._runner = runner
        self.names = [n for n in runner.EXPERIMENTS if n != "fig5_table3"]

    def count_hooks(self) -> Dict[str, tuple]:
        return {
            "repro.soc.engine:CoRunEngine.corun": (
                self._before_corun, self._after_corun,
            )
        }

    def _before_corun(self, args, kwargs):
        stats = args[0].resolve_stats
        return stats.hits, stats.misses

    def _after_corun(self, args, kwargs, result, state) -> None:
        stats = args[0].resolve_stats
        hits, misses = state
        self._counts["simulations"] += 1
        self._counts["soc.epochs"] += stats.calls - hits - misses
        self._counts["soc.resolve_misses"] += stats.misses - misses

    def prepare(self, workers: Optional[int] = None) -> None:
        self._common.clear_caches()
        self._counts = {
            "simulations": 0, "soc.epochs": 0, "soc.resolve_misses": 0,
        }
        self._results: Dict[str, object] = {}
        self._reports: Dict[str, str] = {}
        self._errors: Dict[str, str] = {}

    def execute(self) -> None:
        for name in self.names:
            try:
                result = self._runner.get_runner(name)()
                self._reports[name] = result.render()
            except Exception as exc:  # noqa: BLE001 - reported as a failed op
                self._errors[name] = _error(exc)
                continue
            self._results[name] = result

    def finish(self) -> PassResult:
        failed = dict(self._errors)
        digests = {name: digest(text) for name, text in self._reports.items()}
        pccs = gables = points = 0.0
        for name in self.VALIDATION:
            result = self._results.get(name)
            if result is None:
                continue
            if not result.pccs_avg_error < result.gables_avg_error:
                failed[name] = (
                    f"PCCS error {result.pccs_avg_error:.4f} is not below "
                    f"Gables {result.gables_avg_error:.4f}"
                )
            for bench in result.benchmarks:
                n = len(bench.actual)
                pccs += bench.pccs_error * n
                gables += bench.gables_error * n
                points += n
        values = {
            "pccs_mae": pccs / points if points else 0.0,
            "gables_mae": gables / points if points else 0.0,
        }
        return PassResult(
            list(self.names), digests, failed, dict(self._counts), values
        )


class HeldoutSweeps:
    """Pressure sweeps of seeded held-out kernels through the pool.

    Each kernel is swept as a ``PressureSweepJob`` through
    ``parallel_map`` into a checkpoint sim-cache directory that starts
    empty, then PCCS and Gables predict every point. The five PUs are
    calibrated during set-up; each pass starts from a shut-down pool and
    cleared engine registries.
    """

    name = "heldout_sweeps"
    seed_dependent = True
    KERNELS = 200

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.workers = min(2, os.cpu_count() or 1)

    def setup(self, seed: int) -> None:
        import heldout
        from repro import perf
        from repro.analysis import validation
        from repro.experiments import common
        from repro.obs import runtime as obs_runtime
        from repro.perf.simcache import code_fingerprint
        from repro.workloads.roofline import pressure_levels

        self._perf, self._common = perf, common
        self._validation, self._obs = validation, obs_runtime
        common.clear_caches()
        self.kernels = heldout.generate(seed, self.KERNELS)
        self.multiphase_share = heldout.multiphase_share(self.kernels)
        self.pccs = {
            placement: common.pccs_model_for(*placement)
            for placement in heldout.PLACEMENTS
        }
        self.gables = {
            soc: common.gables_model_for(soc)
            for soc in sorted({soc for soc, _ in heldout.PLACEMENTS})
        }
        levels = {
            soc: tuple(pressure_levels(model.peak_bw))
            for soc, model in self.gables.items()
        }
        self.jobs = [
            perf.PressureSweepJob(
                k.soc_name, k.kernel, k.pu_name, levels[k.soc_name]
            )
            for k in self.kernels
        ]
        code_fingerprint()  # hashed once per process, as by any cache user
        self._passes = 0

    def count_hooks(self) -> Dict[str, tuple]:
        # The job bodies run in pool workers; their counts come back
        # through the program's own metrics snapshots instead.
        return {}

    def prepare(self, workers: Optional[int] = None) -> None:
        from repro.obs.runtime import ObsSession

        self._common.clear_caches()
        self._perf.shutdown_pool()
        self._passes += 1
        self._cache_dir = self.work_dir / f"simcache{self._passes}"
        shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._width = workers or self.workers
        self._cache = self._perf.SimCache(self._cache_dir)
        self._previous_cache = self._perf.set_sim_cache(self._cache)
        self._session = ObsSession(trace=False, metrics=True)
        self._sweeps: Optional[list] = None
        self._curves: list = []
        self._error: Optional[str] = None

    def execute(self) -> None:
        self._obs.activate(self._session)
        try:
            self._sweeps = self._perf.parallel_map(
                self.jobs, max_workers=self._width
            )
            for k, sweep in zip(self.kernels, self._sweeps):
                engine = self._common.engine_for(k.soc_name)
                levels = sweep.external_bws
                self._curves.append((
                    self._validation.predict_curve(
                        self.pccs[(k.soc_name, k.pu_name)],
                        engine, k.kernel, k.pu_name, levels,
                    ),
                    self._validation.predict_curve(
                        self.gables[k.soc_name],
                        engine, k.kernel, k.pu_name, levels,
                    ),
                ))
        except Exception as exc:  # noqa: BLE001 - reported as failed ops
            self._error = _error(exc)
        finally:
            self._perf.shutdown_pool()
            self._obs.deactivate()

    def finish(self) -> PassResult:
        import heldout

        self._perf.set_sim_cache(self._previous_cache)
        store_bytes = sum(
            path.stat().st_size for path in self._cache_dir.rglob("*.pkl")
        )
        shutil.rmtree(self._cache_dir, ignore_errors=True)
        ops = [k.kernel.name for k in self.kernels]
        if self._error is not None:
            return PassResult(ops, {}, {op: self._error for op in ops}, {})
        digests, failed = {}, {}
        pccs_err = gables_err = 0.0
        points = 0
        regions = []
        for k, sweep, (pccs, gables) in zip(
            self.kernels, self._sweeps, self._curves
        ):
            name = k.kernel.name
            actual = sweep.relative_speeds
            digests[name] = digest(repr((sweep, pccs, gables)))
            if len(actual) != len(sweep.external_bws) or not all(
                0.0 < rs <= 1.0 for rs in actual
            ):
                failed[name] = f"relative speeds out of (0, 1]: {actual}"
            pccs_err += sum(abs(p - a) for p, a in zip(pccs, actual))
            gables_err += sum(abs(g - a) for g, a in zip(gables, actual))
            points += len(actual)
            region = self.pccs[(k.soc_name, k.pu_name)].region_of(
                sweep.demand_bw
            )
            regions.append((k.placement, region.value, len(actual)))
        pccs_mae, gables_mae = pccs_err / points, gables_err / points
        if not pccs_mae < gables_mae:
            failed.update({
                op: f"PCCS MAE {pccs_mae:.4f} is not below Gables "
                f"{gables_mae:.4f}"
                for op in ops
            })
        snapshot = self._session.metrics.snapshot()
        counts = {
            "simulations": int(snapshot.counter_value("soc.coruns")),
            "soc.epochs": int(snapshot.counter_value("soc.epochs")),
            "soc.resolve_misses": int(
                snapshot.counter_value("soc.resolve_cache.misses")
            ),
            "perf.simcache.stores": self._cache.stores,
        }
        values = {
            "pccs_mae": pccs_mae,
            "gables_mae": gables_mae,
            "store_bytes": store_bytes,
            "multiphase_share": self.multiphase_share,
            "region_shares": heldout.region_shares(regions),
        }
        return PassResult(ops, digests, failed, counts, values)


def make(name: str, work_dir: Path):
    if name == DramPolicy.name:
        return DramPolicy()
    if name == SocArtifacts.name:
        return SocArtifacts()
    if name == HeldoutSweeps.name:
        return HeldoutSweeps(work_dir)
    raise KeyError(name)
