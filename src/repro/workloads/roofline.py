"""Roofline-toolkit-style calibrator kernels (paper Sections 2.2, 3.2).

Calibrators are synthetic vector kernels whose operational intensity is
adjustable: the PU loads each word of an array and performs a chosen
number of operations on it. Lowering the operation count per word raises
the bandwidth demand. The paper uses them both to characterize contention
(Fig. 3) and as the controllable traffic generators of the
processor-centric model construction.

The key service here is :func:`calibrator_for_bandwidth`: invert the
machine model to find the operational intensity whose *standalone
bandwidth demand* on a given PU matches a target level.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.workloads.kernel import KernelSpec, single_phase_kernel

_BISECTION_ITERS = 60
_MAX_INTENSITY = 1e6


def calibrator(
    op_intensity: float,
    traffic_gb: float = 0.5,
    locality: float = 1.0,
    name: str = "",
) -> KernelSpec:
    """A synthetic streaming kernel with the given operational intensity."""
    return single_phase_kernel(
        name=name or f"cal-oi{op_intensity:g}",
        op_intensity=op_intensity,
        traffic_gb=traffic_gb,
        locality=locality,
        suite="roofline",
        tags=("calibrator",),
    )


def calibrator_sweep(
    op_intensities: Sequence[float], traffic_gb: float = 0.5
) -> List[KernelSpec]:
    """One calibrator per operational intensity, ascending order."""
    if not op_intensities:
        raise WorkloadError("op_intensities must be non-empty")
    return [calibrator(oi, traffic_gb=traffic_gb) for oi in op_intensities]


def max_demand_kernel(traffic_gb: float = 0.5) -> KernelSpec:
    """The pure-streaming calibrator (zero arithmetic): maximal demand."""
    return calibrator(0.0, traffic_gb=traffic_gb, name="cal-stream")


def calibrator_for_bandwidth(
    engine,
    pu_name: str,
    target_bw: float,
    traffic_gb: float = 0.5,
    tolerance: float = 0.02,
) -> Tuple[KernelSpec, float]:
    """Find a calibrator whose standalone demand on a PU hits a target.

    Parameters
    ----------
    engine:
        A :class:`repro.soc.engine.CoRunEngine` for the target SoC.
    pu_name:
        PU the calibrator will run on.
    target_bw:
        Desired standalone bandwidth demand (GB/s).
    traffic_gb:
        Traffic volume of the produced kernel.
    tolerance:
        Acceptable relative error on the achieved demand.

    Returns
    -------
    (kernel, demand):
        The calibrator and its actual standalone demand. If the target
        exceeds what the PU can generate, the pure-streaming kernel and
        its (lower) demand are returned — the paper notes the actual
        external pressure is "equal to or lower than the demand".
        A repeated search is served from ``engine.calibrators``.
    """
    if target_bw <= 0:
        raise WorkloadError(f"target_bw must be positive, got {target_bw}")
    key = (pu_name, target_bw, traffic_gb, tolerance)
    found = engine.calibrators.get(key)
    if found is None:
        found = _search_calibrator(
            engine, pu_name, target_bw, traffic_gb, tolerance
        )
        engine.calibrators[key] = found
    return found


def _search_calibrator(
    engine, pu_name: str, target_bw: float, traffic_gb: float, tolerance: float
) -> Tuple[KernelSpec, float]:
    """The bisection behind :func:`calibrator_for_bandwidth`."""

    def demand_at(intensity: float) -> float:
        kernel = calibrator(intensity, traffic_gb=traffic_gb)
        return engine.standalone_demand(kernel, pu_name)

    max_demand = demand_at(0.0)
    if target_bw >= max_demand:
        return max_demand_kernel(traffic_gb), max_demand

    lo, hi = 0.0, 1.0
    while demand_at(hi) > target_bw:
        hi *= 2.0
        if hi > _MAX_INTENSITY:
            raise WorkloadError(
                f"cannot reduce demand to {target_bw} GB/s on {pu_name!r}"
            )
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        d = demand_at(mid)
        if d > target_bw:
            lo = mid
        else:
            hi = mid
        if abs(d - target_bw) <= tolerance * target_bw:
            kernel = calibrator(mid, traffic_gb=traffic_gb)
            return kernel, d
    mid = 0.5 * (lo + hi)
    return calibrator(mid, traffic_gb=traffic_gb), demand_at(mid)


def pressure_levels(peak_bw: float, steps: int = 10) -> List[float]:
    """The paper's external-pressure sweep: 10%..100% of peak in 10% steps."""
    if steps <= 0:
        raise WorkloadError("steps must be positive")
    return [peak_bw * (i + 1) / steps for i in range(steps)]
