"""Structural kernel descriptions.

A kernel is a sequence of :class:`Phase` objects. Each phase is described
by the work it performs (FLOPs), the DRAM traffic it generates (bytes) and
a row-locality factor. Everything performance-related (standalone speed,
bandwidth demand, co-run slowdown) is derived by running the kernel on a
simulated machine; the spec itself is machine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import WorkloadError
from repro.units import left_sum


@dataclass(frozen=True)
class Phase:
    """One execution phase of a kernel.

    Attributes
    ----------
    name:
        Phase label (e.g. ``"K1"`` for CFD's first kernel).
    flops:
        Total arithmetic operations performed in the phase.
    traffic_bytes:
        Total DRAM traffic (reads + writes) generated by the phase.
    locality:
        Row-buffer locality factor in (0, 1]. 1.0 is perfectly streaming;
        lower values (e.g. BFS) degrade achievable memory efficiency.
    """

    name: str
    flops: float
    traffic_bytes: float
    locality: float = 1.0

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise WorkloadError(f"phase {self.name!r}: flops must be >= 0")
        if not self.traffic_bytes > 0:  # NaN too
            raise WorkloadError(
                f"phase {self.name!r}: traffic_bytes must be positive"
            )
        if not 0 < self.locality <= 1:
            raise WorkloadError(
                f"phase {self.name!r}: locality must be in (0, 1]"
            )

    @property
    def op_intensity(self) -> float:
        """Operational intensity in FLOPs per byte of DRAM traffic."""
        return self.flops / self.traffic_bytes


@dataclass(frozen=True)
class KernelSpec:
    """A kernel: an ordered tuple of phases plus metadata.

    Attributes
    ----------
    name:
        Kernel name, unique within a suite (e.g. ``"streamcluster"``).
    phases:
        The execution phases, in order. Single-phase kernels have one.
    suite:
        Originating suite (``"roofline"``, ``"rodinia"``, ``"dnn"``).
    """

    name: str
    phases: Tuple[Phase, ...]
    suite: str = ""
    tags: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("kernel name must be non-empty")
        if not self.phases:
            raise WorkloadError(f"kernel {self.name!r} must have >= 1 phase")

    @property
    def total_flops(self) -> float:
        return left_sum(p.flops for p in self.phases)

    @property
    def total_bytes(self) -> float:
        return left_sum(p.traffic_bytes for p in self.phases)

    @property
    def op_intensity(self) -> float:
        """Whole-kernel average operational intensity (FLOPs/byte)."""
        return self.total_flops / self.total_bytes

    @property
    def is_multiphase(self) -> bool:
        return len(self.phases) > 1

    def scaled(self, factor: float, name: str = "") -> "KernelSpec":
        """A copy with all work scaled by ``factor`` (same intensity).

        Useful to size kernels so co-run experiments overlap long enough.
        """
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive, got {factor}")
        return KernelSpec(
            name=name or f"{self.name}x{factor:g}",
            phases=tuple(
                Phase(
                    name=p.name,
                    flops=p.flops * factor,
                    traffic_bytes=p.traffic_bytes * factor,
                    locality=p.locality,
                )
                for p in self.phases
            ),
            suite=self.suite,
            tags=self.tags,
        )


def single_phase_kernel(
    name: str,
    op_intensity: float,
    traffic_gb: float = 1.0,
    locality: float = 1.0,
    suite: str = "",
    tags: Tuple[str, ...] = (),
) -> KernelSpec:
    """Convenience constructor for a one-phase kernel.

    Parameters
    ----------
    op_intensity:
        FLOPs per byte of DRAM traffic.
    traffic_gb:
        Total traffic volume in decimal GB (sets the kernel's length).
    """
    if op_intensity < 0:
        raise WorkloadError("op_intensity must be >= 0")
    traffic_bytes = traffic_gb * 1e9
    return KernelSpec(
        name=name,
        phases=(
            Phase(
                name="main",
                flops=op_intensity * traffic_bytes,
                traffic_bytes=traffic_bytes,
                locality=locality,
            ),
        ),
        suite=suite,
        tags=tags,
    )
