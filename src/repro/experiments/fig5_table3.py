"""Fig. 5 + Table 3: memory-controller scheduling-policy study.

Runs the CMP DRAM simulator with two core groups (low-BW cores 0-7,
high-BW cores 8-15, as in Section 2.3) across the five scheduling
policies. Fig. 5 reports the high-group kernels' achieved relative speed
under rising low-group pressure; Table 3 reports each policy's row-buffer
hit rate and effective bandwidth when combined demand saturates the
memory.

Expected qualitative outcome (the paper's validation): the three
fairness-controlled policies (ATLAS, TCM, SMS) produce the flat/drop/flat
three-region shape observed on the real Xavier; FCFS decays roughly
proportionally with low locality; FR-FCFS sustains locality but lacks
fairness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.series import Series, render_series
from repro.analysis.tables import TextTable, fmt, fmt_pct
from repro.dram.system import CMPSystem
from repro.errors import ConfigurationError, UnknownKeyError

POLICIES: Tuple[str, ...] = ("fcfs", "frfcfs", "atlas", "tcm", "sms")
_GROUP_CORES = 8


@dataclass(frozen=True)
class PolicyStats:
    """Table 3 row: saturated-load statistics of one policy."""

    policy: str
    row_hit_rate: float
    effective_bw_fraction: float


@dataclass(frozen=True)
class Fig5Table3Result:
    """Per-policy curve families plus the Table 3 statistics."""

    peak_bw: float
    curves: Tuple[Tuple[str, Tuple[Series, ...]], ...]
    stats: Tuple[PolicyStats, ...]

    def policy_series(self, policy: str) -> Tuple[Series, ...]:
        for name, series in self.curves:
            if name == policy:
                return series
        raise UnknownKeyError(policy)

    def policy_stats(self, policy: str) -> PolicyStats:
        for s in self.stats:
            if s.policy == policy:
                return s
        raise UnknownKeyError(policy)

    def render(self) -> str:
        blocks = [
            f"Fig 5 — high-BW group relative speed per MC policy "
            f"(DDR4 peak {self.peak_bw:.1f} GB/s)"
        ]
        for policy, series in self.curves:
            blocks.append(
                render_series(
                    list(series),
                    x_label="low-group BW (GB/s)",
                    y_label="relative speed",
                    title=f"policy {policy}",
                )
            )
        table = TextTable(
            ["policy", "RBH (%)", "effective BW over peak (%)"],
            title="Table 3 — row-buffer hits and effective bandwidth",
        )
        for s in self.stats:
            table.add_row(
                [
                    s.policy,
                    fmt_pct(s.row_hit_rate),
                    fmt_pct(s.effective_bw_fraction),
                ]
            )
        blocks.append(table.render())
        return "\n\n".join(blocks)


def run_fig5_table3(
    victim_demands: Sequence[float] = (18.0, 36.0, 54.0, 72.0, 90.0),
    pressure_levels: Sequence[float] = (6.0, 18.0, 30.0, 42.0, 54.0, 66.0, 78.0, 90.0),
    requests: int = 1500,
    policies: Sequence[str] = POLICIES,
    seed: int = 0,
) -> Fig5Table3Result:
    """Run the policy study.

    Parameters
    ----------
    victim_demands:
        High-group total demands (the paper sweeps 9..90 GB/s).
    pressure_levels:
        Low-group total demands (the paper sweeps 6..60 GB/s; extended
        here so saturation statistics are sampled).
    requests:
        Requests per victim core; background cores get proportional work.

    The simulations run through :func:`repro.perf.parallel_map` at the
    process worker default (``runner --jobs``). A grid in which no
    victim + pressure point reaches the DRAM peak raises
    :class:`~repro.errors.ConfigurationError` before any of them runs.
    """
    from repro.perf import DramRunJob, parallel_map

    system = CMPSystem()
    peak = system.timing.peak_bw_gbps
    # Every policy's Table 3 point is its last saturated grid point.
    if not any(v + p >= peak for v in victim_demands for p in pressure_levels):
        raise ConfigurationError(
            "no grid point reaches the DRAM peak of "
            f"{peak:.1f} GB/s (victim + pressure), so Table 3's "
            "saturated statistics cannot be sampled"
        )
    victim_cores = frozenset(range(_GROUP_CORES, 2 * _GROUP_CORES))
    # Grid order: policy, victim, then the alone run and each pressure
    # level. At one worker the simulations run in this order.
    jobs = []
    for policy in policies:
        for victim in victim_demands:
            victims = tuple(
                system.group_configs(
                    victim, _GROUP_CORES, requests, index_offset=_GROUP_CORES
                )
            )
            jobs.append(DramRunJob(policy, seed, victims))
            for pressure in pressure_levels:
                bg_requests = max(
                    200, int(requests * pressure / victim * 1.5)
                )
                background = tuple(
                    system.group_configs(
                        pressure, _GROUP_CORES, bg_requests, index_offset=0
                    )
                )
                jobs.append(
                    DramRunJob(
                        policy, seed, background + victims, victim_cores
                    )
                )
    results = iter(parallel_map(jobs))
    curves = []
    stats = []
    for policy in policies:
        series = []
        for victim in victim_demands:
            alone = next(results)
            ys = []
            for pressure in pressure_levels:
                result = next(results)
                ys.append(
                    min(alone.elapsed_ns / result.elapsed_ns, 1.0)
                )
                if victim + pressure >= peak:
                    saturated = (
                        result.row_hit_rate,
                        result.effective_bw_gbps / peak,
                    )
            series.append(
                Series(
                    name=f"{victim:.0f} GB/s",
                    x=tuple(pressure_levels),
                    y=tuple(ys),
                )
            )
        curves.append((policy, tuple(series)))
        stats.append(
            PolicyStats(
                policy=policy,
                row_hit_rate=saturated[0],
                effective_bw_fraction=saturated[1],
            )
        )
    return Fig5Table3Result(
        peak_bw=peak, curves=tuple(curves), stats=tuple(stats)
    )
