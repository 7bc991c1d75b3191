"""PCCS: Processor-Centric Contention-aware Slowdown Model — reproduction.

A full reimplementation of the MICRO'21 paper by Xu, Belviranli, Shen and
Vetter, including every substrate the evaluation depends on:

- :mod:`repro.core` — the PCCS three-region slowdown model, its empirical
  construction, bandwidth scaling, multi-phase prediction, and the
  design-space exploration workflow.
- :mod:`repro.baselines` — the Gables state-of-the-art baseline and a
  proportional-share strawman.
- :mod:`repro.soc` — a heterogeneous SoC co-run simulator standing in for
  the NVIDIA Jetson AGX Xavier and Qualcomm Snapdragon 855 platforms.
- :mod:`repro.dram` — an event-driven DRAM/memory-controller simulator
  with FCFS/FR-FCFS/ATLAS/TCM/SMS scheduling (the Section 2.3 study).
- :mod:`repro.workloads` — roofline calibrators, Rodinia-style kernels
  and layer-level DNN models.
- :mod:`repro.profiling` — standalone/pressure/co-run measurement
  harnesses.
- :mod:`repro.experiments` — one module per paper table and figure.

Quickstart::

    from repro import xavier_agx, CoRunEngine, build_pccs_parameters, PCCSModel

    engine = CoRunEngine(xavier_agx())
    params = build_pccs_parameters(engine, "gpu")
    model = PCCSModel(params)
    model.relative_speed(60.0, 40.0)  # demand 60 GB/s, external 40 GB/s

The names below are bound on first access (PEP 562), so ``import repro``
loads no other module and a run loads only the models it uses.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # The same names, for type checkers (``X as X`` re-exports them
    # under mypy --strict); tests/test_import_closure.py keeps this
    # block and the table below equal.
    from repro.core.model import (
        PCCSModel as PCCSModel,
        SlowdownPrediction as SlowdownPrediction,
    )
    from repro.core.parameters import (
        PCCSParameters as PCCSParameters,
        Region as Region,
    )
    from repro.core.construction import (
        ConstructionOptions as ConstructionOptions,
        construct_parameters as construct_parameters,
    )
    from repro.core.calibration import (
        CalibrationResult as CalibrationResult,
        run_calibration as run_calibration,
        build_pccs_parameters as build_pccs_parameters,
    )
    from repro.core.scaling import (
        scale_parameters as scale_parameters,
        bandwidth_ratio as bandwidth_ratio,
    )
    from repro.core.multiphase import (
        predict_multiphase as predict_multiphase,
        predict_average_bw as predict_average_bw,
    )
    from repro.core.phasedetect import (
        detect_phases as detect_phases,
        phases_to_inputs as phases_to_inputs,
        sample_demand_series as sample_demand_series,
    )
    from repro.core.placement import (
        Task as Task,
        best_placement as best_placement,
        search_placements as search_placements,
    )
    from repro.core.io import (
        save_parameters as save_parameters,
        load_parameters as load_parameters,
        save_calibration as save_calibration,
        load_calibration as load_calibration,
    )
    from repro.core.workflow import (
        predict_placement as predict_placement,
        build_soc_models as build_soc_models,
    )
    from repro.core.explorer import (
        FrequencyExplorer as FrequencyExplorer,
        CoreCountExplorer as CoreCountExplorer,
        DesignExplorer as DesignExplorer,
        DesignPoint as DesignPoint,
        DesignSelection as DesignSelection,
    )
    from repro.baselines.gables import (
        GablesModel as GablesModel,
    )
    from repro.baselines.proportional import (
        ProportionalShareModel as ProportionalShareModel,
    )
    from repro.soc.spec import (
        SoCSpec as SoCSpec,
        PUSpec as PUSpec,
        PUType as PUType,
        MemorySpec as MemorySpec,
        MCBehavior as MCBehavior,
    )
    from repro.soc.power import (
        PowerModel as PowerModel,
        explore_power_budget as explore_power_budget,
    )
    from repro.soc.engine import (
        CoRunEngine as CoRunEngine,
        CoRunResult as CoRunResult,
    )
    from repro.soc.configs import (
        xavier_agx as xavier_agx,
        snapdragon_855 as snapdragon_855,
        soc_by_name as soc_by_name,
        available_socs as available_socs,
    )
    from repro.soc.builder import (
        custom_pu as custom_pu,
        custom_soc as custom_soc,
    )
    from repro.workloads.kernel import (
        KernelSpec as KernelSpec,
        Phase as Phase,
    )
    from repro.workloads.roofline import (
        calibrator as calibrator,
        calibrator_for_bandwidth as calibrator_for_bandwidth,
    )
    from repro.workloads.rodinia import (
        rodinia_kernel as rodinia_kernel,
        rodinia_suite as rodinia_suite,
    )
    from repro.workloads.dnn import (
        dnn_model as dnn_model,
        dnn_suite as dnn_suite,
        mnist_calibrator as mnist_calibrator,
    )
    from repro.errors import (
        ReproError as ReproError,
        ConfigurationError as ConfigurationError,
        CalibrationError as CalibrationError,
        SimulationError as SimulationError,
        WorkloadError as WorkloadError,
        PredictionError as PredictionError,
    )

__version__ = "1.0.0"

#: Each defining module and the public names it contributes (LINT018
#: resolves every entry to its definition).
_LAZY_EXPORTS = {
    # core
    "repro.core.model": ("PCCSModel", "SlowdownPrediction"),
    "repro.core.parameters": ("PCCSParameters", "Region"),
    "repro.core.construction": ("ConstructionOptions", "construct_parameters"),
    "repro.core.calibration": (
        "CalibrationResult",
        "run_calibration",
        "build_pccs_parameters",
    ),
    "repro.core.scaling": ("scale_parameters", "bandwidth_ratio"),
    "repro.core.multiphase": ("predict_multiphase", "predict_average_bw"),
    "repro.core.phasedetect": (
        "detect_phases",
        "phases_to_inputs",
        "sample_demand_series",
    ),
    "repro.core.placement": ("Task", "best_placement", "search_placements"),
    "repro.core.io": (
        "save_parameters",
        "load_parameters",
        "save_calibration",
        "load_calibration",
    ),
    "repro.core.workflow": ("predict_placement", "build_soc_models"),
    "repro.core.explorer": (
        "FrequencyExplorer",
        "CoreCountExplorer",
        "DesignExplorer",
        "DesignPoint",
        "DesignSelection",
    ),
    # baselines
    "repro.baselines.gables": ("GablesModel",),
    "repro.baselines.proportional": ("ProportionalShareModel",),
    # soc
    "repro.soc.spec": (
        "SoCSpec",
        "PUSpec",
        "PUType",
        "MemorySpec",
        "MCBehavior",
    ),
    "repro.soc.power": ("PowerModel", "explore_power_budget"),
    "repro.soc.engine": ("CoRunEngine", "CoRunResult"),
    "repro.soc.configs": (
        "xavier_agx",
        "snapdragon_855",
        "soc_by_name",
        "available_socs",
    ),
    "repro.soc.builder": ("custom_pu", "custom_soc"),
    # workloads
    "repro.workloads.kernel": ("KernelSpec", "Phase"),
    "repro.workloads.roofline": ("calibrator", "calibrator_for_bandwidth"),
    "repro.workloads.rodinia": ("rodinia_kernel", "rodinia_suite"),
    "repro.workloads.dnn": ("dnn_model", "dnn_suite", "mnist_calibrator"),
    # errors
    "repro.errors": (
        "ReproError",
        "ConfigurationError",
        "CalibrationError",
        "SimulationError",
        "WorkloadError",
        "PredictionError",
    ),
}

__all__ = ["__version__"] + [
    name for names in _LAZY_EXPORTS.values() for name in names
]


def __getattr__(name: str) -> object:
    for module, names in _LAZY_EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
