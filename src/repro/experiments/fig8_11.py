"""Figs. 8-11: Rodinia benchmark validation on both platforms.

For every benchmark on a given (SoC, PU), measures the actual co-run
relative-speed curve under rising external pressure and compares the
PCCS and Gables predictions point by point. Reports per-benchmark and
average errors — the paper's headline accuracy comparison.

- Fig. 8: 10 Rodinia on Xavier GPU (paper: PCCS 6.3% avg error)
- Fig. 9: 5 Rodinia on Xavier CPU (paper: 2.6%)
- Fig. 10: 10 Rodinia on Snapdragon GPU (paper: 5.9%)
- Fig. 11: 5 Rodinia on Snapdragon CPU (paper: 3.1%)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.errors import mean_abs_error
from repro.analysis.series import Series, render_series
from repro.analysis.tables import TextTable, fmt
from repro.core.multiphase import phase_inputs_from_profile, predict_multiphase
from repro.errors import UnknownKeyError
from repro.experiments.common import (
    engine_for,
    gables_model_for,
    pccs_model_for,
)
from repro.perf import PressureSweepJob, parallel_map
from repro.soc.spec import PUType
from repro.units import left_sum
from repro.workloads.rodinia import CPU_VALIDATION_SET, RODINIA_NAMES, rodinia_kernel
from repro.workloads.roofline import pressure_levels

FIGURES: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "fig8": ("xavier-agx", "gpu", RODINIA_NAMES),
    "fig9": ("xavier-agx", "cpu", CPU_VALIDATION_SET),
    "fig10": ("snapdragon-855", "gpu", RODINIA_NAMES),
    "fig11": ("snapdragon-855", "cpu", CPU_VALIDATION_SET),
}


@dataclass(frozen=True)
class BenchmarkValidation:
    """Actual vs predicted curves for one benchmark."""

    benchmark: str
    demand_bw: float
    external_bws: Tuple[float, ...]
    actual: Tuple[float, ...]
    pccs: Tuple[float, ...]
    gables: Tuple[float, ...]

    @property
    def pccs_error(self) -> float:
        return mean_abs_error(self.pccs, self.actual)

    @property
    def gables_error(self) -> float:
        return mean_abs_error(self.gables, self.actual)

    def series(self) -> Tuple[Series, ...]:
        return (
            Series("actual", self.external_bws, self.actual),
            Series("pccs", self.external_bws, self.pccs),
            Series("gables", self.external_bws, self.gables),
        )


@dataclass(frozen=True)
class RodiniaValidationResult:
    """One figure's full validation set."""

    figure: str
    soc_name: str
    pu_name: str
    benchmarks: Tuple[BenchmarkValidation, ...]

    @property
    def pccs_avg_error(self) -> float:
        return left_sum(b.pccs_error for b in self.benchmarks) / len(
            self.benchmarks
        )

    @property
    def gables_avg_error(self) -> float:
        return left_sum(b.gables_error for b in self.benchmarks) / len(
            self.benchmarks
        )

    def benchmark(self, name: str) -> BenchmarkValidation:
        for b in self.benchmarks:
            if b.benchmark == name:
                return b
        raise UnknownKeyError(name)

    def render(self) -> str:
        table = TextTable(
            ["benchmark", "demand (GB/s)", "PCCS err (%)", "Gables err (%)"],
            title=(
                f"{self.figure} — Rodinia on {self.soc_name} {self.pu_name}"
            ),
        )
        for b in self.benchmarks:
            table.add_row(
                [
                    b.benchmark,
                    fmt(b.demand_bw),
                    fmt(b.pccs_error * 100),
                    fmt(b.gables_error * 100),
                ]
            )
        table.add_row(
            [
                "AVERAGE",
                "",
                fmt(self.pccs_avg_error * 100),
                fmt(self.gables_avg_error * 100),
            ]
        )
        blocks = [table.render()]
        for b in self.benchmarks:
            blocks.append(
                render_series(
                    list(b.series()),
                    x_label="external BW (GB/s)",
                    y_label="relative speed",
                    title=f"{b.benchmark} (demand {b.demand_bw:.1f} GB/s)",
                )
            )
        return "\n\n".join(blocks)


def run_validation(
    figure: str,
    steps: int = 10,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> RodiniaValidationResult:
    """Run one of figs. 8-11 (see :data:`FIGURES`).

    ``jobs`` fans the per-benchmark pressure sweeps (the expensive part)
    out across processes; ``None`` uses the runner's ``--jobs`` default
    and ``1`` is strictly serial. Results are identical either way.
    """
    soc_name, pu_name, default_benchmarks = FIGURES[figure]
    names = tuple(benchmarks) if benchmarks is not None else default_benchmarks
    engine = engine_for(soc_name)
    pccs = pccs_model_for(soc_name, pu_name)
    gables = gables_model_for(soc_name)
    levels = pressure_levels(engine.soc.peak_bw, steps=steps)
    pu_type = PUType.CPU if pu_name == "cpu" else PUType.GPU

    kernels = [rodinia_kernel(name, pu_type) for name in names]
    sweeps = parallel_map(
        [
            PressureSweepJob(soc_name, kernel, pu_name, tuple(levels))
            for kernel in kernels
        ],
        max_workers=jobs,
        labels=[f"{figure}:{name}" for name in names],
    )
    out = []
    for name, kernel, sweep in zip(names, kernels, sweeps):
        profile = engine.profile(kernel, pu_name)
        if kernel.is_multiphase:
            demands, weights = phase_inputs_from_profile(profile)
            pccs_pred = tuple(
                predict_multiphase(pccs, demands, weights, y) for y in levels
            )
        else:
            pccs_pred = tuple(
                pccs.relative_speed(sweep.demand_bw, y) for y in levels
            )
        gables_pred = tuple(
            gables.relative_speed(sweep.demand_bw, y) for y in levels
        )
        out.append(
            BenchmarkValidation(
                benchmark=name,
                demand_bw=sweep.demand_bw,
                external_bws=tuple(levels),
                actual=sweep.relative_speeds,
                pccs=pccs_pred,
                gables=gables_pred,
            )
        )
    return RodiniaValidationResult(
        figure=figure,
        soc_name=soc_name,
        pu_name=pu_name,
        benchmarks=tuple(out),
    )


def run_fig8(steps: int = 10, jobs: Optional[int] = None) -> RodiniaValidationResult:
    return run_validation("fig8", steps=steps, jobs=jobs)


def run_fig9(steps: int = 10, jobs: Optional[int] = None) -> RodiniaValidationResult:
    return run_validation("fig9", steps=steps, jobs=jobs)


def run_fig10(steps: int = 10, jobs: Optional[int] = None) -> RodiniaValidationResult:
    return run_validation("fig10", steps=steps, jobs=jobs)


def run_fig11(steps: int = 10, jobs: Optional[int] = None) -> RodiniaValidationResult:
    return run_validation("fig11", steps=steps, jobs=jobs)
