"""Multi-memory-controller SoCs (the paper's Section 5 extension).

The studied platforms interleave channels under one controller, so one
shared-memory model suffices. Section 5 notes the model "can be extended"
to SoCs that map different channels to different MCs with PU affinity.
This module provides that extension: a :class:`PartitionedMemorySystem`
splits the SoC's channels across controllers, assigns each PU to one
partition, and resolves contention independently per partition — PUs
behind different controllers do not interfere (at the cost of each seeing
only its partition's bandwidth).

The partitioned system quacks like
:class:`repro.soc.memsys.SharedMemorySystem`, so a
:class:`repro.soc.engine.CoRunEngine` can run on it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.soc.memsys import SharedMemorySystem, StreamDemand, StreamGrant
from repro.soc.spec import MCBehavior
from repro.units import left_sum


@dataclass(frozen=True)
class MCPartition:
    """One memory controller: its PUs and its share of the channels."""

    name: str
    pu_names: Tuple[str, ...]
    peak_fraction: float

    def __post_init__(self) -> None:
        if not self.pu_names:
            raise ConfigurationError(
                f"partition {self.name!r} must own at least one PU"
            )
        if not 0 < self.peak_fraction <= 1:
            raise ConfigurationError(
                f"partition {self.name!r}: peak_fraction must be in (0, 1]"
            )


class PartitionedMemorySystem:
    """Several controllers, each serving an exclusive set of PUs.

    Parameters
    ----------
    peak_bw:
        Total SoC DRAM bandwidth (split across partitions).
    partitions:
        Channel/PU split; fractions must sum to 1 and PU assignments must
        not overlap.
    behavior:
        Controller personality, shared by every partition.
    """

    def __init__(
        self,
        peak_bw: float,
        partitions: Sequence[MCPartition],
        behavior: Optional[MCBehavior] = None,
    ):
        if peak_bw <= 0:
            raise SimulationError(f"peak_bw must be positive, got {peak_bw}")
        if not partitions:
            raise ConfigurationError("at least one partition required")
        total = left_sum(p.peak_fraction for p in partitions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"partition fractions must sum to 1, got {total}"
            )
        seen: Dict[str, str] = {}
        for p in partitions:
            for pu in p.pu_names:
                if pu in seen:
                    raise ConfigurationError(
                        f"PU {pu!r} assigned to both {seen[pu]!r} and "
                        f"{p.name!r}"
                    )
                seen[pu] = p.name
        self.peak_bw = peak_bw
        self.partitions = tuple(partitions)
        self.behavior = behavior or MCBehavior()
        self._systems = {
            p.name: SharedMemorySystem(
                peak_bw * p.peak_fraction, self.behavior
            )
            for p in partitions
        }
        self._pu_to_partition = seen

    # ------------------------------------------------------------------
    def partition_of(self, pu_name: str) -> str:
        """Which controller serves the named PU."""
        partition = self._pu_to_partition.get(pu_name)
        if partition is None:
            raise ConfigurationError(
                f"PU {pu_name!r} is not assigned to any memory controller"
            )
        return partition

    def system_for(self, pu_name: str) -> SharedMemorySystem:
        """The single-controller model behind one PU."""
        return self._systems[self.partition_of(pu_name)]

    # ------------------------------------------------------------------
    # SharedMemorySystem-compatible surface
    # ------------------------------------------------------------------
    def effective_bw(self, streams: Sequence[StreamDemand]) -> float:
        """Effective bandwidth of the partition the streams live on.

        Only defined for streams on one partition (the standalone
        profiling path); co-run resolution handles mixed sets.
        """
        partitions = {self.partition_of(s.name) for s in streams}
        if len(partitions) > 1:
            raise SimulationError(
                "effective_bw across partitions is undefined; use resolve"
            )
        if not partitions:
            first = self.partitions[0].name
            return self._systems[first].effective_bw(streams)
        return self._systems[partitions.pop()].effective_bw(streams)

    def loaded_latency_ns(self, utilization: float) -> float:
        return next(iter(self._systems.values())).loaded_latency_ns(
            utilization
        )

    pu_burst_bw = staticmethod(SharedMemorySystem.pu_burst_bw)

    def resolve(self, streams: Sequence[StreamDemand]) -> List[StreamGrant]:
        """Resolve each partition independently; order preserved."""
        by_partition: Dict[str, List[int]] = {}
        for i, s in enumerate(streams):
            by_partition.setdefault(self.partition_of(s.name), []).append(i)
        grants: List[Optional[StreamGrant]] = [None] * len(streams)
        for partition, indices in sorted(by_partition.items()):
            subset = [streams[i] for i in indices]
            for i, grant in zip(
                indices, self._systems[partition].resolve(subset)
            ):
                grants[i] = grant
        return [g for g in grants if g is not None]


def split_socs_memory(
    soc, partitions: Sequence[MCPartition]
) -> PartitionedMemorySystem:
    """Build a partitioned memory system for an existing SoC spec."""
    return PartitionedMemorySystem(
        peak_bw=soc.peak_bw, partitions=partitions, behavior=soc.mc
    )
