"""Factory functions for the two SoC platforms the paper evaluates.

Architectural numbers follow Table 6 of the paper. The behavioural
constants (memory-level parallelism, latency sensitivity, overlap, memory
controller personality) are this reproduction's calibrated stand-ins for
the real silicon; DESIGN.md documents the substitution.
"""

from __future__ import annotations

from typing import Dict

from repro.soc.spec import MCBehavior, MemorySpec, PUSpec, PUType, SoCSpec

CPU, GPU, DLA = "cpu", "gpu", "dla"


def xavier_agx() -> SoCSpec:
    """NVIDIA Jetson AGX Xavier: 8-core Carmel CPU, Volta GPU, DLA.

    Memory: 16 GB 256-bit LPDDR4x @ 2133 MHz, 136.5 GB/s theoretical peak.
    Standalone near-peak bandwidths match Fig. 2 of the paper: roughly
    30 GB/s (DLA), 93 GB/s (CPU), 127 GB/s (GPU).
    """
    cpu = PUSpec(
        name=CPU,
        pu_type=PUType.CPU,
        cores=8,
        frequency_mhz=2265.0,
        flops_per_cycle_per_core=8.0,  # 145 GFLOP/s peak
        max_bw=95.0,
        mlp_lines=400.0,  # L_sat ~ 270 ns
        latency_sensitivity=0.5,  # hardware prefetchers hide much of it
        overlap=0.85,
        latency_exposure=0.00022,
        arbitration_weight=1.0,
    )
    gpu = PUSpec(
        name=GPU,
        pu_type=PUType.GPU,
        cores=512,
        frequency_mhz=1377.0,
        flops_per_cycle_per_core=2.0,  # 1410 GFLOP/s peak
        max_bw=130.0,
        mlp_lines=1400.0,  # massive thread-level parallelism hides latency
        latency_sensitivity=0.5,
        overlap=0.95,
        latency_exposure=0.0010,
        arbitration_weight=1.25,  # deep request queues win more service
    )
    dla = PUSpec(
        name=DLA,
        pu_type=PUType.DLA,
        cores=2048,
        frequency_mhz=1395.2,
        flops_per_cycle_per_core=2.0,  # ~5.7 TOP/s peak
        max_bw=30.0,
        mlp_lines=47.0,  # L_sat ~ 100 ns: slows from the first contention
        latency_sensitivity=0.22,  # deep DMA pipelining softens the decay
        overlap=0.6,
        latency_exposure=0.0,  # DMA engine: no dependent accesses
    )
    memory = MemorySpec(
        channels=8,
        bus_bits_per_channel=32,
        io_frequency_mhz=2133.0,
        technology="LPDDR4x",
    )  # 136.5 GB/s theoretical peak
    return SoCSpec(
        name="xavier-agx",
        pus=(cpu, gpu, dla),
        memory=memory,
        mc=MCBehavior(),
    )


def snapdragon_855() -> SoCSpec:
    """Qualcomm Snapdragon 855: 8-core Kryo 485 CPU, Adreno 640 GPU.

    Memory: 16 GB 64-bit LPDDR4x @ 2133 MHz, ~34 GB/s theoretical peak.
    """
    cpu = PUSpec(
        name=CPU,
        pu_type=PUType.CPU,
        cores=8,
        frequency_mhz=1800.0,
        flops_per_cycle_per_core=8.0,  # 115 GFLOP/s peak
        max_bw=22.0,
        mlp_lines=95.0,  # L_sat ~ 276 ns
        latency_sensitivity=0.5,
        overlap=0.85,
        latency_exposure=0.0004,
        arbitration_weight=1.0,
    )
    gpu = PUSpec(
        name=GPU,
        pu_type=PUType.GPU,
        cores=384,
        frequency_mhz=585.0,
        flops_per_cycle_per_core=4.0,  # ~900 GFLOP/s peak
        max_bw=28.0,
        mlp_lines=600.0,
        latency_sensitivity=0.5,
        overlap=0.95,
        latency_exposure=0.0007,
        arbitration_weight=1.25,
    )
    memory = MemorySpec(
        channels=2,
        bus_bits_per_channel=32,
        io_frequency_mhz=2133.0,
        technology="LPDDR4x",
    )  # 34.1 GB/s theoretical peak
    return SoCSpec(
        name="snapdragon-855",
        pus=(cpu, gpu),
        memory=memory,
        mc=MCBehavior(),
    )


_REGISTRY = {
    "xavier-agx": xavier_agx,
    "snapdragon-855": snapdragon_855,
}


def soc_by_name(name: str) -> SoCSpec:
    """Look up a platform factory by name."""
    from repro.errors import ConfigurationError

    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown SoC {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


#: A per-process memo of a pure function of the name, so a worker's
#: entries never need to reach the coordinator.
_SPEC_TEXT: Dict[str, str] = {}


def spec_text(name: str) -> str:
    """``repr`` of a built-in SoC's spec, memoised per name.

    Simulation-cache keys hash the resolved spec rather than the name,
    so editing a config invalidates its entries. Building the spec and
    its ``repr`` cost more than the rest of a sweep's key.
    """
    text = _SPEC_TEXT.get(name)
    if text is None:
        text = _SPEC_TEXT[name] = repr(soc_by_name(name))
    return text


def available_socs() -> tuple:
    """Names of all built-in SoC configurations."""
    return tuple(sorted(_REGISTRY))
